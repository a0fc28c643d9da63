// Package compress provides the uniform codec layer behind GraphH's edge
// cache modes and network-message compression (§IV-B and §IV-C of the
// paper). The paper evaluates four settings — raw, snappy, zlib-1 and
// zlib-3 — and auto-selects among them using per-codec expected compression
// ratios (γ₀=1, γ₁=2, γ₂=4, γ₃=5, Table V).
package compress

import (
	"bytes"
	"compress/zlib"
	"encoding/json"
	"fmt"
	"io"
	"slices"

	"repro/internal/snappy"
)

// Mode enumerates the paper's cache/communication codecs. The numbering
// follows §IV-B: Mode-1 caches raw tiles, Mode-2 snappy, Mode-3 zlib-1 and
// Mode-4 zlib-3.
type Mode int

const (
	// None stores data uncompressed (cache mode-1).
	None Mode = iota
	// Snappy uses the snappy block format (cache mode-2, default network
	// compressor).
	Snappy
	// Zlib1 uses zlib at compression level 1 (cache mode-3).
	Zlib1
	// Zlib3 uses zlib at compression level 3 (cache mode-4).
	Zlib3
	numModes
)

// Modes lists all codecs in cache-mode order.
var Modes = []Mode{None, Snappy, Zlib1, Zlib3}

// String returns the codec name used in experiment output.
func (m Mode) String() string {
	switch m {
	case None:
		return "raw"
	case Snappy:
		return "snappy"
	case Zlib1:
		return "zlib-1"
	case Zlib3:
		return "zlib-3"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// CacheModeNumber returns the paper's 1-based cache mode number.
func (m Mode) CacheModeNumber() int { return int(m) + 1 }

// ModeByName parses a codec name as printed by String.
func ModeByName(name string) (Mode, error) {
	for _, m := range Modes {
		if m.String() == name {
			return m, nil
		}
	}
	return None, fmt.Errorf("compress: unknown codec %q", name)
}

// MarshalJSON encodes the codec as its String name — the stable wire form
// of ServerStats.CacheMode in the graphhd daemon's JSON schema.
func (m Mode) MarshalJSON() ([]byte, error) { return json.Marshal(m.String()) }

// UnmarshalJSON parses the name form written by MarshalJSON.
func (m *Mode) UnmarshalJSON(b []byte) error {
	var name string
	if err := json.Unmarshal(b, &name); err != nil {
		return err
	}
	mode, err := ModeByName(name)
	if err != nil {
		return err
	}
	*m = mode
	return nil
}

// ExpectedRatio returns the paper's planning estimate γᵢ of the codec's
// compression ratio on graph tiles (§IV-B). The cache system uses these to
// choose a mode before any data has been compressed.
func (m Mode) ExpectedRatio() float64 {
	switch m {
	case None:
		return 1
	case Snappy:
		return 2
	case Zlib1:
		return 4
	case Zlib3:
		return 5
	default:
		return 1
	}
}

// AppendCompress appends the compressed form of src to dst and returns the
// extended slice. The result of every mode is self-contained:
// AppendDecompress recovers src exactly without knowing the original length.
// When dst has enough spare capacity no allocation occurs — the
// per-superstep wire path reuses one buffer per worker this way. dst and src
// must not overlap.
func (m Mode) AppendCompress(dst, src []byte) ([]byte, error) {
	switch m {
	case None:
		return append(dst, src...), nil
	case Snappy:
		bound := snappy.MaxEncodedLen(len(src))
		if bound < 0 {
			return nil, fmt.Errorf("compress: snappy input too large (%d bytes)", len(src))
		}
		off := len(dst)
		dst = slices.Grow(dst, bound)
		enc := snappy.Encode(dst[off:off+bound], src)
		return dst[:off+len(enc)], nil
	case Zlib1, Zlib3:
		level := 1
		if m == Zlib3 {
			level = 3
		}
		w := appendWriter{buf: dst}
		zw, err := zlib.NewWriterLevel(&w, level)
		if err != nil {
			return nil, fmt.Errorf("compress: %s writer: %w", m, err)
		}
		if _, err := zw.Write(src); err != nil {
			return nil, fmt.Errorf("compress: %s write: %w", m, err)
		}
		if err := zw.Close(); err != nil {
			return nil, fmt.Errorf("compress: %s close: %w", m, err)
		}
		return w.buf, nil
	default:
		return nil, fmt.Errorf("compress: invalid mode %d", int(m))
	}
}

// AppendDecompress appends the decompressed form of data, produced by
// AppendCompress with the same mode, to dst and returns the extended slice,
// reusing dst's spare capacity when it suffices. dst and data must not
// overlap.
func (m Mode) AppendDecompress(dst, data []byte) ([]byte, error) {
	switch m {
	case None:
		return append(dst, data...), nil
	case Snappy:
		dLen, err := snappy.DecodedLen(data)
		if err != nil {
			return nil, err
		}
		off := len(dst)
		dst = slices.Grow(dst, dLen)
		out, err := snappy.Decode(dst[off:off+dLen], data)
		if err != nil {
			return nil, err
		}
		return dst[:off+len(out)], nil
	case Zlib1, Zlib3:
		zr, err := zlib.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("compress: %s reader: %w", m, err)
		}
		defer zr.Close()
		w := appendWriter{buf: dst}
		if _, err := io.Copy(&w, zr); err != nil {
			return nil, fmt.Errorf("compress: %s read: %w", m, err)
		}
		return w.buf, nil
	default:
		return nil, fmt.Errorf("compress: invalid mode %d", int(m))
	}
}

// appendWriter adapts an append-to-slice destination to io.Writer for the
// zlib paths.
type appendWriter struct{ buf []byte }

func (w *appendWriter) Write(p []byte) (int, error) {
	w.buf = append(w.buf, p...)
	return len(p), nil
}

// Valid reports whether m is a defined codec.
func (m Mode) Valid() bool { return m >= None && m < numModes }

// SelectCacheMode implements the paper's automatic cache-mode selection
// (§IV-B): given the total tile bytes S and the cache capacity C, pick the
// smallest mode i such that S/γᵢ ≤ C; if none fits, use zlib-1 (mode-3).
// A non-positive capacity means "no cache" and also returns zlib-1, matching
// the paper's fallback.
func SelectCacheMode(totalTileBytes int64, capacityBytes int64) Mode {
	if capacityBytes > 0 {
		for _, m := range Modes {
			if float64(totalTileBytes)/m.ExpectedRatio() <= float64(capacityBytes) {
				return m
			}
		}
	}
	return Zlib1
}
