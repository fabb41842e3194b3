package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"

	"ridgewalker/internal/rng"
)

// Streaming RMAT generation: GenerateRMAT materializes the full edge
// list (16 bytes/edge plus the CSR under construction), which caps the
// in-container scale well below the RMAT-24+ graphs the tiered store
// targets. StreamRMAT writes the same binary file SaveFile(GenerateRMAT)
// would — byte for byte — while holding only one spill chunk and the
// degree/row-pointer array in memory:
//
//	pass 1  regenerate the deterministic edge stream, count degrees,
//	        write the header and row-pointer array;
//	pass 2  regenerate the stream again, spill (src,dst) pairs to
//	        temporary chunk files, then emit the column array in row
//	        order. Edge weights (1 + dst%5, ThunderRW's rule) derive
//	        from the column values, so they stream to a side file during
//	        emission and are appended — no third pass over the edges.
//
// Two spill shapes cover the sort:
//
//   - bucketed (default): pairs are appended to per-bucket files by
//     source-vertex range (buckets cut so each holds at most one chunk's
//     edges); emission loads one bucket, counting-places its pairs into
//     rows, and sorts each row in memory.
//   - pre-sorted (Sorted): each chunk is sorted by (src,dst) before it
//     is spilled, and emission is a k-way merge of the chunk files —
//     the merge order IS row order with ascending neighbors, so the
//     in-memory per-row sort is skipped entirely.
//
// Both shapes keep Build's row semantics (neighbor lists ascending,
// duplicates and self-loops kept), which is what byte-identity needs.

// StreamOptions tunes StreamRMAT.
type StreamOptions struct {
	// ChunkEdges bounds the generated edges buffered in memory per spill
	// chunk (mirrored pairs count double on undirected graphs). 0 means
	// 1<<22 (4 Mi edges, 64 MiB of pair buffer when mirrored).
	ChunkEdges int
	// Sorted selects the pre-sorted spill shape: chunks are sorted
	// before hitting disk and emission k-way merges them, skipping the
	// per-bucket in-memory sort.
	Sorted bool
	// Weights attaches ThunderRW-style edge weights (AttachWeights).
	Weights bool
	// Labels, when positive, attaches hashed vertex labels with that
	// many types (AttachLabels).
	Labels int
	// TmpDir hosts the spill files; empty means the output's directory.
	TmpDir string
}

// StreamStats reports what a StreamRMAT call did.
type StreamStats struct {
	Vertices, Edges int
	// Chunks is the number of spill files written (0 when the whole edge
	// set fit one buffer and never touched temporary storage).
	Chunks int
	// SpillBytes is the total temporary file volume.
	SpillBytes int64
}

// pairKey packs an edge endpoint pair so uint64 ordering is (src, dst)
// ordering.
func pairKey(src, dst VertexID) uint64 { return uint64(src)<<32 | uint64(dst) }

// StreamRMAT generates cfg's graph directly into path's binary file.
// The output is byte-identical to SaveFile(path, GenerateRMAT(cfg)) with
// the requested weights/labels attached.
func StreamRMAT(path string, cfg RMATConfig, opt StreamOptions) (StreamStats, error) {
	if cfg.Scale < 1 || cfg.Scale > 30 {
		return StreamStats{}, fmt.Errorf("graph: RMAT scale %d out of range [1,30]", cfg.Scale)
	}
	if cfg.EdgeFactor < 1 {
		return StreamStats{}, fmt.Errorf("graph: RMAT edge factor %d < 1", cfg.EdgeFactor)
	}
	sum := cfg.A + cfg.B + cfg.C + cfg.D
	if sum < 0.999 || sum > 1.001 || cfg.A <= 0 || cfg.B <= 0 || cfg.C <= 0 || cfg.D <= 0 {
		return StreamStats{}, fmt.Errorf("graph: RMAT probabilities (%v,%v,%v,%v) must be positive and sum to 1",
			cfg.A, cfg.B, cfg.C, cfg.D)
	}
	if opt.Labels < 0 || opt.Labels > 256 {
		return StreamStats{}, fmt.Errorf("graph: label types %d out of (0,256]", opt.Labels)
	}
	chunk := opt.ChunkEdges
	if chunk <= 0 {
		chunk = 1 << 22
	}
	n := 1 << cfg.Scale
	m := cfg.EdgeFactor * n
	stats := StreamStats{Vertices: n, Edges: m}

	// Pass 1: degree counting. The generator stream is deterministic in
	// the seed, so the second pass replays the same edges.
	rowPtr := make([]int64, n+1)
	r := rng.New(cfg.Seed)
	for i := 0; i < m; i++ {
		src, dst := rmatEdge(cfg, r)
		rowPtr[src+1]++
		if !cfg.Directed {
			rowPtr[dst+1]++
		}
	}
	for v := 1; v <= n; v++ {
		rowPtr[v] += rowPtr[v-1]
	}
	totalEntries := rowPtr[n]

	out, err := os.Create(path)
	if err != nil {
		return stats, err
	}
	defer out.Close()
	// Match WriteBinary's framing exactly: same header fields, same
	// little-endian array dumps, one buffered writer.
	bw := bufio.NewWriterSize(out, 1<<20)
	var flags uint32
	if cfg.Directed {
		flags |= flagDirected
	}
	if opt.Weights {
		flags |= flagWeighted
	}
	if opt.Labels > 0 {
		flags |= flagLabeled
	}
	hdr := []uint64{binMagic, binVersion, uint64(flags), uint64(n), uint64(totalEntries)}
	for _, h := range hdr {
		if err := binary.Write(bw, binary.LittleEndian, h); err != nil {
			return stats, err
		}
	}
	if err := binary.Write(bw, binary.LittleEndian, rowPtr); err != nil {
		return stats, err
	}

	// Weights derive from the column stream, but the format puts them
	// after the whole column array; they stream to a side file during
	// emission and are appended below.
	tmpDir := opt.TmpDir
	if tmpDir == "" {
		tmpDir = filepath.Dir(path)
	}
	var wf *os.File
	var wfw *bufio.Writer
	if opt.Weights {
		if wf, err = os.CreateTemp(tmpDir, "rwg-weights-*"); err != nil {
			return stats, err
		}
		defer func() { wf.Close(); os.Remove(wf.Name()) }()
		wfw = bufio.NewWriterSize(wf, 1<<20)
	}
	emit := func(dst VertexID) error {
		if err := binary.Write(bw, binary.LittleEndian, uint32(dst)); err != nil {
			return err
		}
		if wfw != nil {
			w := float32(1 + dst%5)
			return binary.Write(wfw, binary.LittleEndian, w)
		}
		return nil
	}

	if opt.Sorted {
		err = streamSorted(cfg, rowPtr, chunk, tmpDir, &stats, emit)
	} else {
		err = streamBucketed(cfg, rowPtr, chunk, tmpDir, &stats, emit)
	}
	if err != nil {
		return stats, err
	}

	if wfw != nil {
		if err := wfw.Flush(); err != nil {
			return stats, err
		}
		if _, err := wf.Seek(0, io.SeekStart); err != nil {
			return stats, err
		}
		if _, err := io.Copy(bw, bufio.NewReaderSize(wf, 1<<20)); err != nil {
			return stats, err
		}
	}
	if opt.Labels > 0 {
		lbuf := make([]uint8, 0, 1<<16)
		for v := 0; v < n; v++ {
			h := uint64(v) * 0x9e3779b97f4a7c15
			lbuf = append(lbuf, uint8((h>>32)%uint64(opt.Labels)))
			if len(lbuf) == cap(lbuf) {
				if _, err := bw.Write(lbuf); err != nil {
					return stats, err
				}
				lbuf = lbuf[:0]
			}
		}
		if _, err := bw.Write(lbuf); err != nil {
			return stats, err
		}
	}
	if err := bw.Flush(); err != nil {
		return stats, err
	}
	return stats, out.Close()
}

// spillPairs writes a pair buffer to a fresh temp file.
func spillPairs(tmpDir string, pairs []uint64, stats *StreamStats) (string, error) {
	f, err := os.CreateTemp(tmpDir, "rwg-chunk-*")
	if err != nil {
		return "", err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	if err := binary.Write(w, binary.LittleEndian, pairs); err != nil {
		f.Close()
		os.Remove(f.Name())
		return "", err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		os.Remove(f.Name())
		return "", err
	}
	// A failed Close must remove the file too: returning the name with an
	// error would strand it — callers only track names of successful
	// spills, so their cleanup would never see this one.
	if err := f.Close(); err != nil {
		os.Remove(f.Name())
		return "", err
	}
	stats.Chunks++
	stats.SpillBytes += int64(len(pairs)) * 8
	return f.Name(), nil
}

// pairReader streams packed pairs back from a spill file.
type pairReader struct {
	f   *os.File
	br  *bufio.Reader
	cur uint64
	ok  bool
}

func openPairReader(name string) (*pairReader, error) {
	f, err := os.Open(name)
	if err != nil {
		return nil, err
	}
	pr := &pairReader{f: f, br: bufio.NewReaderSize(f, 1<<20)}
	pr.next()
	return pr, nil
}

func (pr *pairReader) next() {
	var buf [8]byte
	if _, err := io.ReadFull(pr.br, buf[:]); err != nil {
		pr.ok = false
		return
	}
	pr.cur = binary.LittleEndian.Uint64(buf[:])
	pr.ok = true
}

func (pr *pairReader) close() { pr.f.Close(); os.Remove(pr.f.Name()) }

// streamSorted is the pre-sorted spill shape: chunks sorted by (src,dst)
// before hitting disk, k-way merged straight to the emitter. The merge
// order is exactly row order with ascending neighbor lists, so no
// in-memory sort happens at emission.
func streamSorted(cfg RMATConfig, rowPtr []int64, chunk int, tmpDir string,
	stats *StreamStats, emit func(VertexID) error) error {
	n := len(rowPtr) - 1
	m := cfg.EdgeFactor * n
	perEdge := 1
	if !cfg.Directed {
		perEdge = 2
	}
	// The buffer never needs more room than the m edges fill (plus the two
	// entries of headroom the spill check below keeps): a caller-supplied
	// ChunkEdges far beyond the graph (1<<30 to mean "never spill") must
	// not turn into a 16 GiB allocation.
	bufCap := min(chunk*perEdge, m*perEdge+2)
	pairs := make([]uint64, 0, bufCap)
	// Spill-file cleanup is unconditional: every error exit below (a
	// failed spill, a failed reader open, a failed emit mid-merge) and the
	// success path all funnel through this defer, so no rwg-chunk-* file
	// outlives the call. Double removal (the reader defer below also
	// removes files it opened) is harmless — removeAll ignores errors.
	var files []string
	defer func() { removeAll(files) }()
	r := rng.New(cfg.Seed)
	for i := 0; i < m; i++ {
		src, dst := rmatEdge(cfg, r)
		pairs = append(pairs, pairKey(src, dst))
		if !cfg.Directed {
			pairs = append(pairs, pairKey(dst, src))
		}
		if len(pairs)+2 > bufCap {
			slices.Sort(pairs)
			name, err := spillPairs(tmpDir, pairs, stats)
			if err != nil {
				return err
			}
			files = append(files, name)
			pairs = pairs[:0]
		}
	}
	slices.Sort(pairs)
	if len(files) == 0 {
		// Single-buffer fast path: everything fit, no temp storage.
		for _, p := range pairs {
			if err := emit(VertexID(p)); err != nil {
				return err
			}
		}
		return nil
	}
	if len(pairs) > 0 {
		name, err := spillPairs(tmpDir, pairs, stats)
		if err != nil {
			return err
		}
		files = append(files, name)
	}
	readers := make([]*pairReader, 0, len(files))
	defer func() {
		for _, pr := range readers {
			pr.close()
		}
	}()
	for _, name := range files {
		pr, err := openPairReader(name)
		if err != nil {
			return err
		}
		readers = append(readers, pr)
	}
	// K-way merge over the sorted runs. The run count is spill volume /
	// chunk size — typically tens — so a linear min scan beats heap
	// bookkeeping and stays obviously correct.
	for {
		min := -1
		for i, pr := range readers {
			if pr.ok && (min < 0 || pr.cur < readers[min].cur) {
				min = i
			}
		}
		if min < 0 {
			return nil
		}
		if err := emit(VertexID(readers[min].cur)); err != nil {
			return err
		}
		readers[min].next()
	}
}

// streamBucketed is the default spill shape: pairs are appended to
// per-bucket files by source-vertex range, each bucket sized (from the
// pass-1 degree sums) to at most one chunk of edges; emission loads one
// bucket at a time, counting-places its pairs into rows, and sorts each
// row in memory.
func streamBucketed(cfg RMATConfig, rowPtr []int64, chunk int, tmpDir string,
	stats *StreamStats, emit func(VertexID) error) error {
	n := len(rowPtr) - 1
	m := cfg.EdgeFactor * n
	// Cut the vertex space into contiguous buckets of at most chunk
	// entries (a single row larger than the chunk gets its own bucket —
	// it must be resident to be sorted anyway).
	bounds := []int{0} // bucket b covers vertices [bounds[b], bounds[b+1])
	for v := 0; v < n; {
		lo := rowPtr[v]
		hi := v + 1
		for hi < n && rowPtr[hi+1]-lo <= int64(chunk) {
			hi++
		}
		bounds = append(bounds, hi)
		v = hi
	}
	nb := len(bounds) - 1
	bucketOf := make([]int32, n)
	for b := 0; b < nb; b++ {
		for v := bounds[b]; v < bounds[b+1]; v++ {
			bucketOf[v] = int32(b)
		}
	}

	files := make([]*os.File, nb)
	writers := make([]*bufio.Writer, nb)
	for b := range files {
		f, err := os.CreateTemp(tmpDir, "rwg-bucket-*")
		if err != nil {
			for _, g := range files[:b] {
				g.Close()
				os.Remove(g.Name())
			}
			return err
		}
		files[b] = f
		writers[b] = bufio.NewWriterSize(f, 1<<16)
	}
	defer func() {
		for _, f := range files {
			if f != nil {
				f.Close()
				os.Remove(f.Name())
			}
		}
	}()
	var buf [8]byte
	put := func(src, dst VertexID) error {
		binary.LittleEndian.PutUint64(buf[:], pairKey(src, dst))
		_, err := writers[bucketOf[src]].Write(buf[:])
		return err
	}
	r := rng.New(cfg.Seed)
	for i := 0; i < m; i++ {
		src, dst := rmatEdge(cfg, r)
		if err := put(src, dst); err != nil {
			return err
		}
		if !cfg.Directed {
			if err := put(dst, src); err != nil {
				return err
			}
		}
	}
	for b, w := range writers {
		if err := w.Flush(); err != nil {
			return err
		}
		if pos, err := files[b].Seek(0, io.SeekCurrent); err == nil {
			stats.SpillBytes += pos
		}
	}
	stats.Chunks = nb

	// Emission: one bucket resident at a time.
	var rows []VertexID
	var next []int64
	for b := 0; b < nb; b++ {
		loV, hiV := bounds[b], bounds[b+1]
		base := rowPtr[loV]
		count := rowPtr[hiV] - base
		if int64(cap(rows)) < count {
			rows = make([]VertexID, count)
		}
		rows = rows[:count]
		if cap(next) < hiV-loV {
			next = make([]int64, hiV-loV)
		}
		next = next[:hiV-loV]
		for v := loV; v < hiV; v++ {
			next[v-loV] = rowPtr[v] - base
		}
		if _, err := files[b].Seek(0, io.SeekStart); err != nil {
			return err
		}
		br := bufio.NewReaderSize(files[b], 1<<20)
		for {
			var pb [8]byte
			if _, err := io.ReadFull(br, pb[:]); err != nil {
				if err == io.EOF {
					break
				}
				return err
			}
			p := binary.LittleEndian.Uint64(pb[:])
			src := int(p >> 32)
			rows[next[src-loV]] = VertexID(p)
			next[src-loV]++
		}
		for v := loV; v < hiV; v++ {
			ns := rows[rowPtr[v]-base : rowPtr[v+1]-base]
			sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
		}
		for _, dst := range rows {
			if err := emit(dst); err != nil {
				return err
			}
		}
		files[b].Close()
		os.Remove(files[b].Name())
		files[b] = nil
	}
	return nil
}

func removeAll(names []string) {
	for _, n := range names {
		os.Remove(n)
	}
}
