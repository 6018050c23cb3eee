package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"chassis/internal/colstore"
	"chassis/internal/core"
	"chassis/internal/dataio"
)

// fingerprints.json records, per model, the model fingerprint the
// benchmark's fits produced when the table was written. The fits'
// inputs do not depend on the run's seed, so one value per model checks
// every run. A change that alters the fitted numbers on purpose rewrites
// the table with --record-fingerprints.
//
//go:embed fingerprints.json
var fingerprintsJSON []byte

// checkRecorded compares fp with the recorded fingerprint of model
// ("fit-inmem", "fit-sharded" or "serve").
func checkRecorded(r *run, model, fp string) {
	var table map[string]string
	if err := json.Unmarshal(fingerprintsJSON, &table); err != nil {
		r.check(false, "fingerprints.json parses: %v", err)
		return
	}
	want, ok := table[model]
	r.check(ok && fp == want, "%s fingerprint %s equals the recorded %q", model, fp, want)
}

// recordFingerprints fits every workload's model once and writes the table
// to out.
func recordFingerprints(ctx context.Context, workdir, out string) error {
	dir := filepath.Join(workdir, fmt.Sprintf("record-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	table := map[string]string{}
	path, err := writeSFCorpus(dir)
	if err != nil {
		return err
	}
	ds, err := dataio.LoadDataset(path)
	if err != nil {
		return err
	}
	train, _, err := ds.Seq.Split(splitFrac)
	if err != nil {
		return err
	}
	for model, cfg := range map[string]core.Config{"fit-inmem": inmemConfig(), "serve": serveModelConfig(0)} {
		m, err := core.FitContext(ctx, train, cfg)
		if err != nil {
			return err
		}
		table[model] = m.Fingerprint()
	}
	cpath, err := writePaperScale(dir)
	if err != nil {
		return err
	}
	rd, err := colstore.Open(cpath)
	if err != nil {
		return err
	}
	m, err := core.FitSharded(ctx, rd, shardedConfig())
	rd.Close()
	if err != nil {
		return err
	}
	table["fit-sharded"] = m.Fingerprint()
	b, err := json.MarshalIndent(table, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(out, append(b, '\n'), 0o644)
}
