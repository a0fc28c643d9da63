package comm

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

func TestJobFrameRoundTrip(t *testing.T) {
	inner := []byte{0xB8, 7, 1, 2, 3, 4}
	for _, job := range []uint32{0, 1, 255, 1 << 16, math.MaxUint32} {
		frame := AppendJobHeader(nil, job)
		frame = append(frame, inner...)
		got, body, err := DecodeJobFrame(frame)
		if err != nil {
			t.Fatalf("job %d: %v", job, err)
		}
		if got != job {
			t.Fatalf("job = %d, want %d", got, job)
		}
		if !bytes.Equal(body, inner) {
			t.Fatalf("inner = %x, want %x", body, inner)
		}
	}
}

func TestJobFrameAppendsToPrefix(t *testing.T) {
	prefix := []byte{1, 2, 3}
	frame := AppendJobHeader(prefix, 42)
	if !bytes.Equal(frame[:3], prefix) {
		t.Fatalf("prefix clobbered: %x", frame[:3])
	}
	if len(frame) != 3+JobHeaderSize {
		t.Fatalf("len = %d, want %d", len(frame), 3+JobHeaderSize)
	}
}

func TestJobFrameRejectsMalformed(t *testing.T) {
	valid := AppendJobHeader(nil, 9)
	valid = append(valid, 0xB8, 3)
	// Truncations of every length below the header size fail.
	for n := 0; n < JobHeaderSize; n++ {
		if _, _, err := DecodeJobFrame(valid[:n]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		}
	}
	// A bare header (empty inner frame) decodes; the inner layer rejects it.
	if _, inner, err := DecodeJobFrame(valid[:JobHeaderSize]); err != nil || len(inner) != 0 {
		t.Fatalf("bare header: inner=%x err=%v", inner, err)
	}
	// Every wrong magic — including the other frame magics on the wire — is
	// rejected, so an unwrapped serial-mode frame can never be mistaken for
	// a job envelope.
	for _, magic := range []byte{0x00, 0xB7, 0xB8, 0xC9, 0xCC, 0xFF} {
		bad := append([]byte{magic}, valid[1:]...)
		if _, _, err := DecodeJobFrame(bad); err == nil {
			t.Fatalf("magic 0x%02X accepted", magic)
		}
	}
}

// TestJobFrameNoCrossJobAliasing pins the isolation property the envelope
// exists for: the same inner step frame wrapped for two different jobs
// produces frames that differ in the header, and each decodes back to its
// own job — a job A frame can never be delivered as job B traffic.
func TestJobFrameNoCrossJobAliasing(t *testing.T) {
	inner := []byte{0xB8, 200, 0xDE, 0xAD}
	a := append(AppendJobHeader(nil, 1), inner...)
	b := append(AppendJobHeader(nil, 2), inner...)
	if bytes.Equal(a, b) {
		t.Fatal("frames for different jobs are identical")
	}
	ja, ia, _ := DecodeJobFrame(a)
	jb, ib, _ := DecodeJobFrame(b)
	if ja == jb {
		t.Fatal("decoded job ids collide")
	}
	if !bytes.Equal(ia, inner) || !bytes.Equal(ib, inner) {
		t.Fatal("inner frames corrupted by envelope")
	}
	// The step byte alone (PR 6 framing) cannot separate these two frames;
	// the job header is load-bearing. Strip it and the frames alias.
	if !bytes.Equal(a[JobHeaderSize:], b[JobHeaderSize:]) {
		t.Fatal("inner frames should alias without the envelope")
	}
}

func FuzzDecodeJobFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{JobFrameMagic})
	f.Add(AppendJobHeader(nil, 0))
	f.Add(append(AppendJobHeader(nil, 1), 0xB8, 0))           // job 1, step frame
	f.Add(append(AppendJobHeader(nil, 2), 0xB8, 0))           // same inner, job 2
	f.Add(append(AppendJobHeader(nil, math.MaxUint32), 0xC9)) // marker inner
	f.Add([]byte{0xB8, 0, 1, 2, 3, 4, 5})                     // unwrapped step frame
	f.Add([]byte{JobFrameMagic, 1, 2, 3})                     // truncated job id
	f.Fuzz(func(t *testing.T, frame []byte) {
		job, inner, err := DecodeJobFrame(frame)
		if err != nil {
			return
		}
		// Accepted frames must round-trip exactly: header fields consistent
		// with the bytes, inner aliasing the tail.
		if len(frame) < JobHeaderSize || frame[0] != JobFrameMagic {
			t.Fatalf("accepted malformed frame %x", frame)
		}
		if want := binary.LittleEndian.Uint32(frame[1:]); job != want {
			t.Fatalf("job = %d, want %d", job, want)
		}
		if !bytes.Equal(inner, frame[JobHeaderSize:]) {
			t.Fatalf("inner mismatch")
		}
		re := append(AppendJobHeader(nil, job), inner...)
		if !bytes.Equal(re, frame) {
			t.Fatalf("re-encode mismatch: %x vs %x", re, frame)
		}
	})
}
