package serve

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
)

// TestCacheConcurrentHitsAndExtend races the two ways requests share a
// cached history state: hits hand the frozen cached state straight to
// predict, while extends clone it and absorb a suffix. Readers and the
// extending requests run at once on one cached history; every response
// must equal a cache-disabled server's bytes, and under -race any write
// to the shared state surfaces as a data race.
func TestCacheConcurrentHitsAndExtend(t *testing.T) {
	const prefix = `{"user":1,"time":2},{"user":0,"time":2.5}`
	body := func(extra string) string {
		return fmt.Sprintf(`{"history":[%s%s],"lookahead":15,"draws":25,"seed":11}`, prefix, extra)
	}
	bodies := []string{
		body(""), // the cached history every hit reads
		body(`,{"user":2,"time":3.25}`),
		body(`,{"user":1,"time":3.5}`),
		body(`,{"user":0,"time":4},{"user":2,"time":4.5}`),
	}
	fixOnce.Do(buildFixture) // fixExpA is read before cachedServer builds it
	s, ts := cachedServer(t, fixExpA, 0)
	_, uncached := cachedServer(t, fixExpA, -1)
	want := make([][]byte, len(bodies))
	for i, b := range bodies {
		resp, blob := postJSON(t, uncached.URL+"/v1/predict/next", b)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("uncached request %d: status %d: %s", i, resp.StatusCode, blob)
		}
		want[i] = blob
	}
	if resp, blob := postJSON(t, ts.URL+"/v1/predict/next", bodies[0]); resp.StatusCode != http.StatusOK {
		t.Fatalf("priming request: status %d: %s", resp.StatusCode, blob)
	}

	post := func(i int) error {
		resp, err := http.Post(ts.URL+"/v1/predict/next", "application/json", strings.NewReader(bodies[i]))
		if err != nil {
			return err
		}
		blob, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("request %d: status %d: %s", i, resp.StatusCode, blob)
		}
		if !bytes.Equal(blob, want[i]) {
			return fmt.Errorf("request %d differs from the uncached server:\n%s\n%s", i, blob, want[i])
		}
		return nil
	}
	const readers, reads = 4, 6
	var wg sync.WaitGroup
	errs := make(chan error, readers*reads+len(bodies))
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < reads; k++ {
				if err := post(0); err != nil {
					errs <- err
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; i < len(bodies); i++ {
			if err := post(i); err != nil {
				errs <- err
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if hits := s.metrics.Counter("serve.histcache.hits").Value(); hits < readers*reads {
		t.Errorf("hits = %d, want at least %d", hits, readers*reads)
	}
	if ext := s.metrics.Counter("serve.histcache.extends").Value(); ext != int64(len(bodies)-1) {
		t.Errorf("extends = %d, want %d", ext, len(bodies)-1)
	}
}
