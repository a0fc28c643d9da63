// Package comm implements GraphH's hybrid communication mode (§IV-C).
//
// After a worker processes a tile it broadcasts the tile's updated vertex
// values to all other servers. Two wire representations exist:
//
//   - dense: a bitvector marking updated targets plus the full float64 value
//     array for the tile's target range — compact bookkeeping but it "sends
//     many zeros" when few vertices changed;
//   - sparse: an explicit (local index, value) list — compact when updates
//     are rare, wasteful when they are common because of the index overhead.
//
// GraphH buffers updates densely, measures the batch's sparsity ratio (the
// fraction of unchanged vertices), and switches to the sparse encoding when
// that ratio exceeds a threshold (0.8 in the paper). The encoded body can
// additionally be compressed; snappy is the paper's default network codec.
package comm

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/bits"
	"slices"
	"sync"

	"repro/internal/compress"
)

// DefaultSparsityThreshold is the paper's switch point: use the sparse
// encoding when more than 80% of the tile's targets are unchanged.
const DefaultSparsityThreshold = 0.8

// Update is one vertex update: a global vertex id and its new value.
type Update struct {
	ID    uint32
	Value float64
}

// Batch is the set of updates a worker produced from one tile.
type Batch struct {
	// TileID identifies the tile that produced the updates.
	TileID uint32
	// Lo and Hi delimit the tile's target range; every update id is inside.
	Lo, Hi uint32
	// Updates lists the changed vertices, in ascending id order.
	Updates []Update
}

// SparsityRatio returns the fraction of the batch's target range that did
// not change — the quantity compared against the threshold (§IV-C).
func (b *Batch) SparsityRatio() float64 {
	n := int(b.Hi - b.Lo)
	if n == 0 {
		return 1
	}
	return 1 - float64(len(b.Updates))/float64(n)
}

// WireMode is the chosen array representation.
type WireMode uint8

const (
	// DenseMode sends a bitvector plus the full range of values.
	DenseMode WireMode = 0
	// SparseMode sends (index, value) pairs.
	SparseMode WireMode = 1
)

// String names the wire mode for experiment output.
func (m WireMode) String() string {
	if m == DenseMode {
		return "dense"
	}
	return "sparse"
}

// ModeChoice controls encoder mode selection.
type ModeChoice int

const (
	// Auto applies the sparsity-threshold rule (the hybrid mode).
	Auto ModeChoice = iota
	// ForceDense always uses the dense encoding (ablation).
	ForceDense
	// ForceSparse always uses the sparse encoding (ablation).
	ForceSparse
)

// Options configures encoding.
type Options struct {
	// Choice selects hybrid/dense/sparse; default Auto.
	Choice ModeChoice
	// SparsityThreshold overrides the 0.8 default when positive.
	SparsityThreshold float64
	// Codec compresses the encoded body; None disables compression.
	Codec compress.Mode
}

// Encoding reports what the encoder produced, for traffic accounting.
type Encoding struct {
	Mode WireMode
	// Codec used on the body.
	Codec compress.Mode
	// RawBytes is the body size before compression, WireBytes the total
	// message size on the wire (header + compressed body).
	RawBytes  int
	WireBytes int
}

// Mode returns the wire representation AppendEncode picks for b: the
// hybrid mode's sparsity rule under Auto, the forced choice otherwise.
func (o Options) Mode(b *Batch) (WireMode, error) {
	switch o.Choice {
	case Auto:
		threshold := o.SparsityThreshold
		if threshold <= 0 {
			threshold = DefaultSparsityThreshold
		}
		if b.SparsityRatio() > threshold {
			return SparseMode, nil
		}
		return DenseMode, nil
	case ForceDense:
		return DenseMode, nil
	case ForceSparse:
		return SparseMode, nil
	}
	return 0, fmt.Errorf("comm: unknown mode choice %d", int(o.Choice))
}

const headerSize = 1 + 1 + 4 + 4 + 4 + 4 + 4 + 4

// Header layout (little endian):
//
//	[0]   magic 0xB7
//	[1]   mode (low nibble) | codec (high nibble)
//	[2:6] tile id
//	[6:10] lo
//	[10:14] hi
//	[14:18] update count
//	[18:22] body length
//	[22:26] CRC-32 of the (possibly compressed) body — snappy's block
//	        format carries no integrity check of its own
//	[26:]  body
const magicByte = 0xB7

// bodyPool recycles the uncompressed-body scratch buffers used between
// encoding and compression (and decompression and parsing), so steady-state
// supersteps do not allocate a body per batch.
var bodyPool = sync.Pool{New: func() any { return new([]byte) }}

// AppendEncode serializes the batch per the options, appending the message
// to dst and returning the extended slice. The updates must be sorted by id
// and lie within [Lo,Hi); AppendEncode validates this. When dst has enough
// spare capacity the only per-call allocation is internal scratch, which is
// pooled — workers reuse one wire buffer per tile per superstep this way
// instead of allocating every broadcast.
func AppendEncode(dst []byte, b *Batch, opts Options) ([]byte, Encoding, error) {
	if err := validateBatch(b); err != nil {
		return nil, Encoding{}, err
	}
	mode, err := opts.Mode(b)
	if err != nil {
		return nil, Encoding{}, err
	}
	if !opts.Codec.Valid() {
		return nil, Encoding{}, fmt.Errorf("comm: invalid codec %d", int(opts.Codec))
	}

	scratch := bodyPool.Get().(*[]byte)
	var body []byte
	switch mode {
	case DenseMode:
		body = encodeDenseInto((*scratch)[:0], b)
	case SparseMode:
		body = encodeSparseInto((*scratch)[:0], b)
	}
	*scratch = body
	rawLen := len(body)

	start := len(dst)
	dst = slices.Grow(dst, headerSize+len(body))
	var hdr [headerSize]byte
	dst = append(dst, hdr[:]...)
	dst, err = opts.Codec.AppendCompress(dst, body)
	bodyPool.Put(scratch)
	if err != nil {
		return nil, Encoding{}, fmt.Errorf("comm: compressing body: %w", err)
	}

	msg := dst[start:]
	compressed := msg[headerSize:]
	msg[0] = magicByte
	msg[1] = uint8(mode) | uint8(opts.Codec)<<4
	binary.LittleEndian.PutUint32(msg[2:], b.TileID)
	binary.LittleEndian.PutUint32(msg[6:], b.Lo)
	binary.LittleEndian.PutUint32(msg[10:], b.Hi)
	binary.LittleEndian.PutUint32(msg[14:], uint32(len(b.Updates)))
	binary.LittleEndian.PutUint32(msg[18:], uint32(len(compressed)))
	binary.LittleEndian.PutUint32(msg[22:], crc32.ChecksumIEEE(compressed))

	return dst, Encoding{Mode: mode, Codec: opts.Codec, RawBytes: rawLen, WireBytes: len(msg)}, nil
}

func validateBatch(b *Batch) error {
	if b.Hi < b.Lo {
		return fmt.Errorf("comm: inverted range [%d,%d)", b.Lo, b.Hi)
	}
	prev := int64(-1)
	for _, u := range b.Updates {
		if u.ID < b.Lo || u.ID >= b.Hi {
			return fmt.Errorf("comm: update id %d outside range [%d,%d)", u.ID, b.Lo, b.Hi)
		}
		if int64(u.ID) <= prev {
			return fmt.Errorf("comm: update ids not strictly ascending at %d", u.ID)
		}
		prev = int64(u.ID)
	}
	return nil
}

// encodeDenseInto writes bitvector + full value range ("sends many zeros")
// into body's spare capacity, growing it only when a larger range than any
// previous batch comes through.
func encodeDenseInto(body []byte, b *Batch) []byte {
	n := int(b.Hi - b.Lo)
	bvLen := (n + 7) / 8
	total := bvLen + 8*n
	if cap(body) < total {
		body = make([]byte, total)
	} else {
		body = body[:total]
		clear(body)
	}
	for _, u := range b.Updates {
		local := int(u.ID - b.Lo)
		body[local/8] |= 1 << (local % 8)
		binary.LittleEndian.PutUint64(body[bvLen+8*local:], math.Float64bits(u.Value))
	}
	return body
}

// encodeSparseInto writes (local index, value) pairs into body's spare
// capacity.
func encodeSparseInto(body []byte, b *Batch) []byte {
	total := 12 * len(b.Updates)
	if cap(body) < total {
		body = make([]byte, total)
	} else {
		body = body[:total]
	}
	for i, u := range b.Updates {
		binary.LittleEndian.PutUint32(body[12*i:], u.ID-b.Lo)
		binary.LittleEndian.PutUint64(body[12*i+4:], math.Float64bits(u.Value))
	}
	return body
}

// DecodeInto parses a message produced by AppendEncode into b, reusing b's
// update slice when its capacity suffices — the receive loop decodes every
// foreign batch of a superstep into one reused Batch this way. On error b's
// contents are unspecified. The decoded batch never aliases msg.
func DecodeInto(b *Batch, msg []byte) (Encoding, error) {
	if len(msg) < headerSize {
		return Encoding{}, fmt.Errorf("comm: message too short (%d bytes)", len(msg))
	}
	if msg[0] != magicByte {
		return Encoding{}, fmt.Errorf("comm: bad magic %#x", msg[0])
	}
	mode := WireMode(msg[1] & 0x0F)
	codec := compress.Mode(msg[1] >> 4)
	if mode != DenseMode && mode != SparseMode {
		return Encoding{}, fmt.Errorf("comm: unknown wire mode %d", mode)
	}
	if !codec.Valid() {
		return Encoding{}, fmt.Errorf("comm: unknown codec %d", int(codec))
	}
	b.TileID = binary.LittleEndian.Uint32(msg[2:])
	b.Lo = binary.LittleEndian.Uint32(msg[6:])
	b.Hi = binary.LittleEndian.Uint32(msg[10:])
	b.Updates = b.Updates[:0]
	count := binary.LittleEndian.Uint32(msg[14:])
	bodyLen := binary.LittleEndian.Uint32(msg[18:])
	if b.Hi < b.Lo {
		return Encoding{}, fmt.Errorf("comm: inverted range [%d,%d)", b.Lo, b.Hi)
	}
	if uint64(len(msg)) != uint64(headerSize)+uint64(bodyLen) {
		return Encoding{}, fmt.Errorf("comm: message length %d, header says %d", len(msg), headerSize+int(bodyLen))
	}
	if count > b.Hi-b.Lo {
		return Encoding{}, fmt.Errorf("comm: %d updates exceed range size %d", count, b.Hi-b.Lo)
	}
	wantCRC := binary.LittleEndian.Uint32(msg[22:])
	if got := crc32.ChecksumIEEE(msg[headerSize:]); got != wantCRC {
		return Encoding{}, fmt.Errorf("comm: body checksum mismatch (got %#x want %#x)", got, wantCRC)
	}
	var body []byte
	var scratch *[]byte
	if codec == compress.None {
		// The raw codec is the identity: parse straight out of the message.
		body = msg[headerSize:]
	} else {
		scratch = bodyPool.Get().(*[]byte)
		var err error
		body, err = codec.AppendDecompress((*scratch)[:0], msg[headerSize:])
		if err != nil {
			bodyPool.Put(scratch)
			return Encoding{}, fmt.Errorf("comm: decompressing body: %w", err)
		}
		*scratch = body
	}
	defer func() {
		if scratch != nil {
			bodyPool.Put(scratch)
		}
	}()

	enc := Encoding{Mode: mode, Codec: codec, RawBytes: len(body), WireBytes: len(msg)}
	n := int(b.Hi - b.Lo)
	switch mode {
	case DenseMode:
		bvLen := (n + 7) / 8
		if len(body) != bvLen+8*n {
			return Encoding{}, fmt.Errorf("comm: dense body %d bytes, want %d", len(body), bvLen+8*n)
		}
		// Grow only after the body-size check above: count comes from the
		// header, which the CRC does not cover, so it must not drive an
		// allocation until the body has bounded it.
		if cap(b.Updates) < int(count) {
			b.Updates = make([]Update, 0, count)
		}
		// Word-at-a-time bitvector scan: load 64 bits, then jump straight
		// to each set bit with TrailingZeros64, so sparse-ish dense bodies
		// cost one branch per update instead of one per target vertex.
		for base := 0; base < n; base += 64 {
			off := base / 8
			var w uint64
			if bvLen-off >= 8 {
				w = binary.LittleEndian.Uint64(body[off:])
			} else {
				for i := off; i < bvLen; i++ {
					w |= uint64(body[i]) << (8 * (i - off))
				}
			}
			// The encoder never sets bits at or beyond n, but the message
			// is untrusted input: stray high bits would index the value
			// array out of bounds.
			if rem := n - base; rem < 64 {
				w &= 1<<rem - 1
			}
			for w != 0 {
				local := base + bits.TrailingZeros64(w)
				w &= w - 1
				v := binary.LittleEndian.Uint64(body[bvLen+8*local:])
				b.Updates = append(b.Updates, Update{
					ID:    b.Lo + uint32(local),
					Value: math.Float64frombits(v),
				})
			}
		}
		if uint32(len(b.Updates)) != count {
			return Encoding{}, fmt.Errorf("comm: dense bitvector has %d updates, header says %d", len(b.Updates), count)
		}
	case SparseMode:
		if len(body) != 12*int(count) {
			return Encoding{}, fmt.Errorf("comm: sparse body %d bytes, want %d", len(body), 12*int(count))
		}
		if cap(b.Updates) < int(count) {
			b.Updates = make([]Update, count)
		}
		b.Updates = b.Updates[:count]
		for i := range b.Updates {
			local := binary.LittleEndian.Uint32(body[12*i:])
			if local >= uint32(n) {
				return Encoding{}, fmt.Errorf("comm: sparse index %d outside range size %d", local, n)
			}
			bits := binary.LittleEndian.Uint64(body[12*i+4:])
			b.Updates[i] = Update{ID: b.Lo + local, Value: math.Float64frombits(bits)}
		}
	}
	if err := validateBatch(b); err != nil {
		return Encoding{}, err
	}
	return enc, nil
}
