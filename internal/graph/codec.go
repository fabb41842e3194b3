package graph

import (
	"encoding/binary"
	"math"
)

// Cold-row codec: delta-gap group varint for neighbor lists, plus a
// tagged per-row weight encoding.
//
// Neighbor rows arrive sorted ascending (Build's invariant), so a row is
// stored as its first vertex id followed by successive gaps — values that
// shrink with density and never go negative. The byte stream uses the
// Stream-VByte split: one control byte per group of four values (two bits
// each encode the value's byte length, 1..4), followed by the values'
// little-endian bytes, truncated to that length. Keeping control bits out
// of the data bytes means the decoder's inner loop is a table-free shift
// and mask with no per-byte branch, which is what makes row-at-a-time
// decode cheap enough for the cohort Row Access stage.
//
// Rows come in two layouts, split by degree. Shallow rows (deg <=
// strideMinDeg) are one contiguous stream; point access scans from the
// head, a single hardware-prefetched run of at most strideMinDeg values.
// Deep rows use a fixed-stride block layout: the row is cut into blocks
// of codecBlockLen values, each block a self-contained stream (the delta
// chain restarts at the block head, so its first value is the absolute
// id), padded to the row's stride — the largest encoded block in that
// row. Block b then starts at byte b*stride, a *computed* offset: point
// access costs one dependent memory access after the locator, exactly
// like an uncompressed CSR's Col[RowPtr[v]+i], instead of loading a
// per-row offset table first (a third serialized cache miss that walk
// traffic, which is one random slot per hop, pays in full). The padding
// costs a few percent on RMAT rows — gap widths within a row are
// near-uniform, so the max block hugs the mean — which leaves the >= 2x
// compression claim intact (TestTieredCompression pins it).
//
// Weight rows carry a one-byte tag: this repository's generators assign
// small-integer weights (AttachWeights: 1 + v mod 5), which pack exactly
// into one byte per edge; anything that does not round-trip through uint8
// falls back to raw little-endian float32, so decode is always lossless.

// codecBlockLen is the restart stride of the cold-row delta chain: every
// codecBlockLen-th value encodes its absolute id, and deep rows pad each
// such block to a fixed per-row byte stride. It must be a multiple of
// the group size (4) so restarts land on control-byte boundaries. 8 is
// tuned for the walk engines' single-slot access pattern: a drawn slot
// costs at most 8 decoded gaps (a fraction of one stream cache line).
const codecBlockLen = 8

// strideMinDeg is the degree above which a cold row uses the
// fixed-stride block layout. Shallower rows stay contiguous and point
// access scans from the row head: a couple of blocks' worth of
// sequential stream bytes is one hardware-prefetched run, cheaper than
// what block padding buys back on rows that small.
const strideMinDeg = 16

// byteLen32 returns the number of bytes (1..4) needed for v's
// little-endian truncated encoding.
func byteLen32(v uint32) int {
	switch {
	case v < 1<<8:
		return 1
	case v < 1<<16:
		return 2
	case v < 1<<24:
		return 3
	default:
		return 4
	}
}

// groupVarintMask[n] keeps the low n bytes of a 4-byte little-endian load.
var groupVarintMask = [5]uint32{0, 0xff, 0xffff, 0xffffff, 0xffffffff}

// appendGroups appends row's group-varint gap encoding to dst with the
// delta chain starting at zero (row[0] encodes as its absolute value).
// Callers chunk rows into codecBlockLen runs; this helper itself never
// restarts.
func appendGroups(dst []byte, row []VertexID) []byte {
	ctrlPos := -1
	k := 0
	prev := uint32(0)
	for _, c := range row {
		v := uint32(c) - prev
		prev = uint32(c)
		if k == 0 {
			ctrlPos = len(dst)
			dst = append(dst, 0)
		}
		n := byteLen32(v)
		dst[ctrlPos] |= byte(n-1) << (2 * uint(k))
		switch n {
		case 1:
			dst = append(dst, byte(v))
		case 2:
			dst = append(dst, byte(v), byte(v>>8))
		case 3:
			dst = append(dst, byte(v), byte(v>>8), byte(v>>16))
		default:
			dst = append(dst, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
		}
		k = (k + 1) & 3
	}
	return dst
}

// decodeGroups decodes len(out) gap values from src with the delta chain
// starting at zero, and returns the bytes consumed.
func decodeGroups(src []byte, out []VertexID) int {
	p := 0
	prev := uint32(0)
	i := 0
	for i < len(out) {
		ctrl := src[p]
		p++
		for k := 0; k < 4 && i < len(out); k++ {
			n := int(ctrl>>(2*uint(k))&3) + 1
			var v uint32
			if p+4 <= len(src) {
				v = binary.LittleEndian.Uint32(src[p:]) & groupVarintMask[n]
			} else {
				for j := 0; j < n; j++ {
					v |= uint32(src[p+j]) << (8 * uint(j))
				}
			}
			p += n
			prev += v
			out[i] = prev
			i++
		}
	}
	return p
}

// appendDeltaRow appends row's contiguous delta-gap encoding to dst: the
// chain restarts every codecBlockLen values (a multiple of the group
// size, so the layout is simply the blocks' streams back to back with no
// padding). row must be sorted ascending. The shallow-row format.
func appendDeltaRow(dst []byte, row []VertexID) []byte {
	for b := 0; b < len(row); b += codecBlockLen {
		end := b + codecBlockLen
		if end > len(row) {
			end = len(row)
		}
		dst = appendGroups(dst, row[b:end])
	}
	return dst
}

// decodeDeltaRow decodes deg contiguous-format values from src into out
// (which must have capacity deg) and returns the number of source bytes
// consumed. out is returned re-sliced to deg.
func decodeDeltaRow(src []byte, deg int, out []VertexID) ([]VertexID, int) {
	out = out[:deg]
	p := 0
	for b := 0; b < deg; b += codecBlockLen {
		end := b + codecBlockLen
		if end > deg {
			end = deg
		}
		p += decodeGroups(src[p:], out[b:end])
	}
	return out, p
}

// appendStridedRow appends row's fixed-stride block encoding to dst and
// returns the extended slice and the row's stride: each codecBlockLen
// block is encoded self-contained and zero-padded to the stride — the
// largest encoded block among all but the last — so block b starts at
// the computed offset b*stride. The last block is written unpadded: the
// stride only positions block *starts*, and no block starts after it,
// which keeps a row's trailing partial block (often a byte or two) from
// costing a full stride. The deep-row format; stride always fits a byte
// (2 control bytes + 8 four-byte values = 34 max).
func appendStridedRow(dst []byte, row []VertexID) ([]byte, int) {
	stride := 0
	for b := 0; b < len(row); b += codecBlockLen {
		end := b + codecBlockLen
		if end >= len(row) && b > 0 {
			break // the last block never pads, so it does not bound the stride
		}
		if end > len(row) {
			end = len(row)
		}
		sz := (end - b + 3) / 4
		prev := uint32(0)
		for _, c := range row[b:end] {
			sz += byteLen32(uint32(c) - prev)
			prev = uint32(c)
		}
		if sz > stride {
			stride = sz
		}
	}
	for b := 0; b < len(row); b += codecBlockLen {
		end := b + codecBlockLen
		if end > len(row) {
			end = len(row)
		}
		start := len(dst)
		dst = appendGroups(dst, row[b:end])
		if end < len(row) {
			for len(dst)-start < stride {
				dst = append(dst, 0)
			}
		}
	}
	return dst, stride
}

// decodeStridedRow decodes deg strided-format values from src into out
// (capacity deg) and returns the consumed byte count (padding included;
// the last block is unpadded, so the count ends at its real edge). out
// is returned re-sliced to deg.
func decodeStridedRow(src []byte, deg, stride int, out []VertexID) ([]VertexID, int) {
	out = out[:deg]
	p := 0
	for b := 0; b < deg; b += codecBlockLen {
		end := b + codecBlockLen
		if end > deg {
			end = deg
		}
		n := decodeGroups(src[p:], out[b:end])
		if end < deg {
			n = stride
		}
		p += n
	}
	return out, p
}

// Weight-row tags. Exactly one of the low two bits is set.
const (
	wtagU8  = 0x01 // one byte per edge: w == float32(b), b in 1..255
	wtagRaw = 0x02 // raw little-endian float32 per edge
)

// appendWeightRow appends ws's tagged encoding to dst.
func appendWeightRow(dst []byte, ws []float32) []byte {
	exact := true
	for _, w := range ws {
		b := uint8(w)
		if b == 0 || float32(b) != w {
			exact = false
			break
		}
	}
	if exact {
		dst = append(dst, wtagU8)
		for _, w := range ws {
			dst = append(dst, uint8(w))
		}
		return dst
	}
	dst = append(dst, wtagRaw)
	for _, w := range ws {
		var buf [4]byte
		binary.LittleEndian.PutUint32(buf[:], math.Float32bits(w))
		dst = append(dst, buf[:]...)
	}
	return dst
}

// decodeWeightRow decodes deg weights from src into out (capacity deg)
// and returns the consumed byte count. out is returned re-sliced to deg.
func decodeWeightRow(src []byte, deg int, out []float32) ([]float32, int) {
	out = out[:deg]
	tag := src[0]
	p := 1
	if tag == wtagU8 {
		for i := 0; i < deg; i++ {
			out[i] = float32(src[p+i])
		}
		return out, p + deg
	}
	for i := 0; i < deg; i++ {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(src[p+4*i:]))
	}
	return out, p + 4*deg
}
