package comm

import (
	"encoding/binary"
	"fmt"
)

// Job-ID envelope (multi-tenant sessions). When a session interleaves more
// than one job over a single cluster inbox, every per-job frame — step-tagged
// tile batches, end-of-step frames, recovery markers, collect batches — is
// prefixed with a five-byte envelope naming the job it belongs to:
//
//	[0xBA][job ID, uint32 LE][inner frame ...]
//
// The envelope extends the step-byte framing from the checkpointing PR one
// level up: the step byte stops a replayed frame from aliasing a live step
// *within* a job, and the job header stops job A's traffic from ever aliasing
// job B's, whatever the inner payload looks like. Serial sessions (at most
// one job in flight) never wrap frames, so the single-job wire format is
// byte-for-byte unchanged.

// JobFrameMagic is the first byte of every job-enveloped frame. It is
// distinct from every other top-level frame magic on the wire (comm raw
// 0xB7, tile step frames 0xB8, end-of-step frames 0xBE, recovery markers
// 0xC9).
const JobFrameMagic = 0xBA

// JobHeaderSize is the encoded envelope length: magic plus a uint32 job ID.
const JobHeaderSize = 5

// AppendJobHeader appends the job envelope header for job to dst and returns
// the extended slice. The inner frame follows immediately after.
func AppendJobHeader(dst []byte, job uint32) []byte {
	var hdr [JobHeaderSize]byte
	hdr[0] = JobFrameMagic
	binary.LittleEndian.PutUint32(hdr[1:], job)
	return append(dst, hdr[:]...)
}

// DecodeJobFrame splits a job-enveloped frame into its job ID and inner
// payload. The inner slice aliases frame; it is not copied. A frame that is
// too short or does not start with JobFrameMagic is rejected — in a
// multi-tenant session an unwrapped frame on the shared inbox is a protocol
// violation, never something to guess about.
func DecodeJobFrame(frame []byte) (job uint32, inner []byte, err error) {
	if len(frame) < JobHeaderSize {
		return 0, nil, fmt.Errorf("comm: job frame truncated: %d bytes, need at least %d", len(frame), JobHeaderSize)
	}
	if frame[0] != JobFrameMagic {
		return 0, nil, fmt.Errorf("comm: job frame magic 0x%02X, want 0x%02X", frame[0], JobFrameMagic)
	}
	return binary.LittleEndian.Uint32(frame[1:]), frame[JobHeaderSize:], nil
}
