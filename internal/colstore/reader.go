package colstore

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"math"
	"sort"

	"chassis/internal/timeline"
)

// blockView is one decoded block: column slices that alias the mapped file
// directly on little-endian hosts (the common case) or decoded copies
// otherwise. Views are built and fully validated at Open, then immutable —
// concurrent readers need no locking.
type blockView struct {
	lo, n   int // global index of first event, event count
	crc     uint32
	times   []float64
	users   []uint32
	kinds   []byte
	topics  []int32
	polar   []float64
	parents []int32
	textOff []uint32
	text    []byte
}

// Reader is a random-access view over a corpus file. Open maps the file,
// verifies every CRC and structural invariant once (one linear pass), and
// exposes unchecked zero-copy access afterwards: Time/User are O(log blocks),
// Materialize converts an arbitrary [lo,hi) event window into activities
// without ever touching the rest of the corpus.
type Reader struct {
	data    []byte
	unmap   func() error
	meta    Meta
	total   int
	blocks  []blockView
	blockLo []int // blocks[i].lo, for sort.Search
	fp      string
	closed  bool
}

// Open maps path and parses + verifies it. On platforms without mmap (or if
// mapping fails) the file is read into memory instead; the Reader API is
// identical either way.
func Open(path string) (*Reader, error) {
	data, unmap, err := openMap(path)
	if err != nil {
		return nil, err
	}
	r, err := parse(data)
	if err != nil {
		if unmap != nil {
			unmap()
		}
		return nil, err
	}
	r.unmap = unmap
	return r, nil
}

// OpenBytes parses an in-memory corpus image — the entry point for tests and
// the decode fuzzer. The Reader aliases data; the caller must not mutate it.
func OpenBytes(data []byte) (*Reader, error) { return parse(data) }

func parse(data []byte) (*Reader, error) {
	size := int64(len(data))
	if size < int64(len(headerMagic)+trailerSize) {
		return nil, ferr(-1, "file too short (%d bytes)", size)
	}
	if string(data[:len(headerMagic)]) != headerMagic {
		return nil, ferr(0, "bad header magic")
	}
	tr := data[size-trailerSize:]
	if string(tr[8:]) != trailerMagic {
		return nil, ferr(size-8, "bad trailer magic")
	}
	le := binary.LittleEndian
	footerLen := int64(le.Uint32(tr[:4]))
	footerCRC := le.Uint32(tr[4:8])
	footerStart := size - trailerSize - footerLen
	if footerLen < 16 || footerStart < int64(len(headerMagic)) {
		return nil, ferr(size-trailerSize, "footer length %d out of range", footerLen)
	}
	footer := data[footerStart : size-trailerSize]
	if got := crc32.Checksum(footer, castagnoli); got != footerCRC {
		return nil, ferr(footerStart, "footer CRC mismatch (got %08x want %08x)", got, footerCRC)
	}

	metaLen := int64(le.Uint32(footer[:4]))
	if metaLen < 2 || 4+metaLen+12 > footerLen {
		return nil, ferr(footerStart, "meta length %d out of range", metaLen)
	}
	metaBlob := footer[4 : 4+metaLen]
	var meta Meta
	if err := json.Unmarshal(metaBlob, &meta); err != nil {
		return nil, ferr(footerStart+4, "bad meta JSON: %v", err)
	}
	if meta.Version < 1 || meta.Version > formatVersion {
		return nil, ferr(footerStart+4, "unsupported format version %d (reader supports <= %d)", meta.Version, formatVersion)
	}
	if meta.M <= 0 {
		return nil, ferr(footerStart+4, "meta has M=%d; want > 0", meta.M)
	}
	if !(meta.Horizon > 0) || math.IsInf(meta.Horizon, 0) || math.IsNaN(meta.Horizon) {
		return nil, ferr(footerStart+4, "meta has non-positive horizon %g", meta.Horizon)
	}
	rest := footer[4+metaLen:]
	total := int64(le.Uint64(rest[:8]))
	nBlocks := int64(le.Uint32(rest[8:12]))
	if int64(len(rest)) != 12+nBlocks*32 {
		return nil, ferr(footerStart, "footer index size mismatch (%d blocks, %d bytes)", nBlocks, len(rest))
	}
	if total < 0 || (total == 0) != (nBlocks == 0) {
		return nil, ferr(footerStart, "inconsistent event/block counts (%d events, %d blocks)", total, nBlocks)
	}

	r := &Reader{data: data, meta: meta, total: int(total)}
	fp := fnv.New64a()
	fp.Write(metaBlob)
	var fpTmp [8]byte
	le.PutUint64(fpTmp[:], uint64(total))
	fp.Write(fpTmp[:])

	var sum int64
	prevEnd := int64(len(headerMagic))
	lastTime := math.Inf(-1)
	for b := int64(0); b < nBlocks; b++ {
		e := rest[12+b*32:]
		off := int64(le.Uint64(e[:8]))
		events := int64(le.Uint64(e[8:16]))
		tMin := math.Float64frombits(le.Uint64(e[16:24]))
		tMax := math.Float64frombits(le.Uint64(e[24:32]))
		if off != prevEnd {
			return nil, ferr(footerStart, "block %d offset %d; want %d (blocks must be contiguous)", b, off, prevEnd)
		}
		if events <= 0 {
			return nil, ferr(footerStart, "block %d is empty", b)
		}
		bv, end, err := parseBlock(data, off, footerStart, int(events), meta, int(sum), lastTime, tMin, tMax)
		if err != nil {
			return nil, err
		}
		lastTime = bv.times[bv.n-1]
		prevEnd = end
		sum += events
		r.blocks = append(r.blocks, *bv)
		r.blockLo = append(r.blockLo, bv.lo)

		le.PutUint32(fpTmp[:4], bv.crc)
		fp.Write(fpTmp[:4])
	}
	if prevEnd != footerStart {
		return nil, ferr(prevEnd, "gap between last block and footer")
	}
	if sum != total {
		return nil, ferr(footerStart, "block events sum to %d; footer claims %d", sum, total)
	}
	r.fp = fmt.Sprintf("colstore:%016x", fp.Sum64())
	return r, nil
}

// parseBlock verifies one block's CRC and structural invariants and builds
// its column views. lo is the block's first global event index; prevLast the
// last time of the previous block (for cross-block ordering).
func parseBlock(data []byte, off, limit int64, events int, meta Meta, lo int, prevLast, tMin, tMax float64) (*blockView, int64, error) {
	le := binary.LittleEndian
	if off+8 > limit {
		return nil, 0, ferr(off, "truncated block header")
	}
	crc := le.Uint32(data[off : off+4])
	payloadLen := int64(le.Uint32(data[off+4 : off+8]))
	if payloadLen < 8 || payloadLen%8 != 0 || off+8+payloadLen > limit {
		return nil, 0, ferr(off, "block payload length %d out of range", payloadLen)
	}
	payload := data[off+8 : off+8+payloadLen]
	if got := crc32.Checksum(payload, castagnoli); got != crc {
		return nil, 0, ferr(off, "block CRC mismatch (got %08x want %08x)", got, crc)
	}
	n := int(le.Uint32(payload[:4]))
	textLen := int(le.Uint32(payload[4:8]))
	if n == 0 {
		return nil, 0, ferr(off, "block declares zero events")
	}
	if n != events {
		return nil, 0, ferr(off, "block has %d events; footer index claims %d", n, events)
	}

	cursor := 8
	column := func(elem int) ([]byte, error) {
		want := n * elem
		if elem == 0 { // textOff: n+1 u32s
			want = (n + 1) * 4
		}
		if cursor+want > len(payload) {
			return nil, ferr(off+int64(cursor), "truncated column")
		}
		b := payload[cursor : cursor+want]
		cursor += want + pad8(want)
		return b, nil
	}
	var (
		bv  = &blockView{lo: lo, n: n, crc: crc}
		err error
		b   []byte
	)
	if b, err = column(8); err != nil {
		return nil, 0, err
	}
	bv.times = viewF64(b, n)
	if b, err = column(4); err != nil {
		return nil, 0, err
	}
	bv.users = viewU32(b, n)
	if b, err = column(1); err != nil {
		return nil, 0, err
	}
	bv.kinds = b
	if b, err = column(4); err != nil {
		return nil, 0, err
	}
	bv.topics = viewI32(b, n)
	if b, err = column(8); err != nil {
		return nil, 0, err
	}
	bv.polar = viewF64(b, n)
	if b, err = column(4); err != nil {
		return nil, 0, err
	}
	bv.parents = viewI32(b, n)
	if b, err = column(0); err != nil {
		return nil, 0, err
	}
	bv.textOff = viewU32(b, n+1)
	if cursor+textLen+pad8(textLen) != len(payload) {
		return nil, 0, ferr(off+int64(cursor), "text column size mismatch")
	}
	bv.text = payload[cursor : cursor+textLen]

	// Semantic invariants the fit relies on. CRCs only catch accidental
	// corruption; these checks make a hostile or buggy file fail loudly
	// instead of corrupting a multi-hour fit.
	if bv.textOff[0] != 0 || int(bv.textOff[n]) != textLen {
		return nil, 0, ferr(off, "text offsets do not span the text column")
	}
	prev := prevLast
	for i := 0; i < n; i++ {
		t := bv.times[i]
		if math.IsNaN(t) || t < 0 || t > meta.Horizon {
			return nil, 0, ferr(off, "event %d: time %g outside [0,%g]", lo+i, t, meta.Horizon)
		}
		if t < prev {
			return nil, 0, ferr(off, "event %d: time %g breaks chronological order", lo+i, t)
		}
		prev = t
		if int(bv.users[i]) >= meta.M {
			return nil, 0, ferr(off, "event %d: user %d outside [0,%d)", lo+i, bv.users[i], meta.M)
		}
		if bv.kinds[i] > byte(timeline.Angry) {
			return nil, 0, ferr(off, "event %d: unknown kind %d", lo+i, bv.kinds[i])
		}
		if p := bv.parents[i]; p != int32(timeline.NoParent) && (p < 0 || int(p) >= lo+i) {
			return nil, 0, ferr(off, "event %d: parent %d is not an earlier event", lo+i, p)
		}
		if pol := bv.polar[i]; math.IsNaN(pol) || math.IsInf(pol, 0) {
			return nil, 0, ferr(off, "event %d: non-finite polarity", lo+i)
		}
		if bv.textOff[i] > bv.textOff[i+1] {
			return nil, 0, ferr(off, "event %d: text offsets not monotone", lo+i)
		}
	}
	if bv.times[0] != tMin || bv.times[n-1] != tMax {
		return nil, 0, ferr(off, "block time range [%g,%g] disagrees with footer index [%g,%g]",
			bv.times[0], bv.times[n-1], tMin, tMax)
	}
	return bv, off + 8 + payloadLen, nil
}

// Meta returns the corpus metadata. Slices are shared with the reader.
func (r *Reader) Meta() Meta { return r.meta }

// NumEvents returns the corpus length.
func (r *Reader) NumEvents() int { return r.total }

// M returns the user-dimension count.
func (r *Reader) M() int { return r.meta.M }

// Horizon returns the observation horizon.
func (r *Reader) Horizon() float64 { return r.meta.Horizon }

// NumBlocks returns how many storage blocks back the corpus.
func (r *Reader) NumBlocks() int { return len(r.blocks) }

// Fingerprint identifies the corpus content: an FNV-64a digest of the footer
// metadata, the event count, and every block's CRC (which in turn covers the
// event bytes). Checkpoint envelopes store it in place of the in-memory
// sequence fingerprint so resume guards work without rereading the corpus.
func (r *Reader) Fingerprint() string { return r.fp }

// blockOf returns the index of the block holding global event g.
func (r *Reader) blockOf(g int) int {
	return sort.Search(len(r.blockLo), func(i int) bool { return r.blockLo[i] > g }) - 1
}

// Time returns event g's timestamp.
func (r *Reader) Time(g int) float64 {
	bv := &r.blocks[r.blockOf(g)]
	return bv.times[g-bv.lo]
}

// User returns event g's user dimension.
func (r *Reader) User(g int) int {
	bv := &r.blocks[r.blockOf(g)]
	return int(bv.users[g-bv.lo])
}

// SearchTime returns the first global event index with time >= t, or
// NumEvents if none — the colstore analogue of core's windowStartIn.
func (r *Reader) SearchTime(t float64) int {
	return sort.Search(r.total, func(g int) bool { return r.Time(g) >= t })
}

// Scan calls fn(g, t, user) for every event in [lo, hi) in global order,
// walking the column views block-wise — no per-event block lookup, no
// activity materialization, no text decoding. It is the cheap path for
// passes that only need the (time, user) stream: the sharded fit's support
// heuristic, source ranking, and M-step scans.
func (r *Reader) Scan(lo, hi int, fn func(g int, t float64, user int)) error {
	if lo < 0 || hi > r.total || lo > hi {
		return fmt.Errorf("colstore: scan range [%d,%d) outside corpus [0,%d)", lo, hi, r.total)
	}
	for g := lo; g < hi; {
		bv := &r.blocks[r.blockOf(g)]
		i := g - bv.lo
		stop := bv.n
		if bv.lo+stop > hi {
			stop = hi - bv.lo
		}
		for ; i < stop; i++ {
			fn(g, bv.times[i], int(bv.users[i]))
			g++
		}
	}
	return nil
}

// ScanPolar is Scan extended with the polarity column — the three columns a
// streamed conformity build consumes (conformity.Accumulator.Append), still
// one zero-copy pass per block with everything else left on disk. Callback
// order and event indexing are identical to Scan.
func (r *Reader) ScanPolar(lo, hi int, fn func(g int, t float64, user int, polarity float64)) error {
	if lo < 0 || hi > r.total || lo > hi {
		return fmt.Errorf("colstore: scan range [%d,%d) outside corpus [0,%d)", lo, hi, r.total)
	}
	for g := lo; g < hi; {
		bv := &r.blocks[r.blockOf(g)]
		i := g - bv.lo
		stop := bv.n
		if bv.lo+stop > hi {
			stop = hi - bv.lo
		}
		for ; i < stop; i++ {
			fn(g, bv.times[i], int(bv.users[i]), bv.polar[i])
			g++
		}
	}
	return nil
}

// Materialize converts the [lo, hi) event window into activities, reusing
// dst's backing array when it is large enough. IDs and parent links are
// global event indices; with withParents false, parents are stripped to
// NoParent (what the fit's E-step consumes). Only the blocks overlapping the
// window are touched.
func (r *Reader) Materialize(lo, hi int, withParents bool, dst []timeline.Activity) ([]timeline.Activity, error) {
	if lo < 0 || hi > r.total || lo > hi {
		return nil, fmt.Errorf("colstore: materialize range [%d,%d) outside corpus [0,%d)", lo, hi, r.total)
	}
	need := hi - lo
	if cap(dst) < need {
		dst = make([]timeline.Activity, need)
	}
	dst = dst[:need]
	for g := lo; g < hi; {
		bv := &r.blocks[r.blockOf(g)]
		i := g - bv.lo
		stop := bv.n
		if bv.lo+stop > hi {
			stop = hi - bv.lo
		}
		for ; i < stop; i++ {
			a := &dst[g-lo]
			a.ID = timeline.ActivityID(g)
			a.User = timeline.UserID(bv.users[i])
			a.Time = bv.times[i]
			a.Kind = timeline.Kind(bv.kinds[i])
			a.Topic = int(bv.topics[i])
			a.Polarity = bv.polar[i]
			if withParents {
				a.Parent = timeline.ActivityID(bv.parents[i])
			} else {
				a.Parent = timeline.NoParent
			}
			if o0, o1 := bv.textOff[i], bv.textOff[i+1]; o1 > o0 {
				a.Text = string(bv.text[o0:o1])
			} else {
				a.Text = ""
			}
			g++
		}
	}
	return dst, nil
}

// Sequence materializes the whole corpus as a timeline.Sequence — the
// convenience path for converters, tests, and corpora known to fit in
// memory. Paper-scale fits use Materialize windows instead.
func (r *Reader) Sequence() (*timeline.Sequence, error) {
	acts, err := r.Materialize(0, r.total, true, nil)
	if err != nil {
		return nil, err
	}
	return &timeline.Sequence{M: r.meta.M, Horizon: r.meta.Horizon, Activities: acts}, nil
}

// Close releases the mapping. The Reader (and any views handed out) must not
// be used afterwards.
func (r *Reader) Close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	r.blocks, r.blockLo, r.data = nil, nil, nil
	if r.unmap != nil {
		return r.unmap()
	}
	return nil
}
