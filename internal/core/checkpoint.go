package core

// Superstep checkpointing (see docs/ARCHITECTURE.md, "Checkpointing &
// recovery"). Every CheckpointEvery supersteps each server writes its full
// vertex vector plus the superstep number to its local store as one CRC'd
// blob, inside the step-end barrier bracket — after every server has
// absorbed every update batch of the step and before anyone starts the
// next one. That bracket makes the set of per-server blobs a consistent
// cut: no update traffic is in flight when they are taken, so under
// All-in-All replication every blob for step c encodes the identical
// global vector. The write is atomic (disk.Store.Write), so a crash
// mid-checkpoint can never destroy the previous checkpoint; the last two
// checkpoints are retained because survivors of a crash may disagree by
// one interval about which checkpoint is newest (a barrier wake race), and
// recovery restores the minimum they all hold.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"time"
)

// ckptMagic is the first byte of a checkpoint blob; disjoint from the comm
// (0xB7), tile step-frame (0xB8), job-envelope (0xBA), end-of-step (0xBE)
// and recovery-marker (0xC9) kinds so a blob can never be confused with a
// wire payload.
const ckptMagic = 0xCC

// ckptHeaderSize is magic + superstep (u32) + value count (u32) + body CRC.
const ckptHeaderSize = 1 + 4 + 4 + 4

// ckptBlobName returns the store name of the checkpoint taken after step.
func ckptBlobName(step int) string { return fmt.Sprintf("ckpt/%08d", step) }

// ckptName is the job-aware blob name: serial sessions keep the classic
// ckpt/%08d names (one job at a time owns the namespace), multi-tenant
// runners scope blobs by job ID so two concurrent checkpointed jobs never
// clobber each other's cuts.
func (s *server) ckptName(step int) string {
	if s.multi {
		return fmt.Sprintf("ckpt/j%d-%08d", s.jobID, step)
	}
	return ckptBlobName(step)
}

// ckptRetain is how many checkpoints each server keeps. Two, not one:
// recovery restores min over the survivors' newest checkpoints, and the
// barrier wake race bounds their disagreement to one interval.
const ckptRetain = 2

// encodeCheckpoint serializes the vertex vector into dst.
func encodeCheckpoint(dst []byte, step int, values []float64) []byte {
	dst = append(dst[:0], ckptMagic)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(step))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(values)))
	dst = append(dst, 0, 0, 0, 0) // CRC placeholder
	body := len(dst)
	need := body + 8*len(values)
	if cap(dst) < need {
		grown := make([]byte, need)
		copy(grown, dst)
		dst = grown
	} else {
		dst = dst[:need]
	}
	out := dst[body:]
	for i, v := range values {
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(v))
	}
	binary.LittleEndian.PutUint32(dst[9:], crc32.ChecksumIEEE(out))
	return dst
}

// decodeCheckpoint validates a checkpoint blob and fills values in place.
// The value count must match — a checkpoint always covers the full graph.
func decodeCheckpoint(blob []byte, values []float64) (step int, err error) {
	if len(blob) < ckptHeaderSize || blob[0] != ckptMagic {
		return 0, fmt.Errorf("core: malformed checkpoint blob (%d bytes)", len(blob))
	}
	step = int(binary.LittleEndian.Uint32(blob[1:]))
	count := binary.LittleEndian.Uint32(blob[5:])
	if uint64(len(blob)) != ckptHeaderSize+8*uint64(count) {
		return 0, fmt.Errorf("core: checkpoint blob %d bytes, header says %d values", len(blob), count)
	}
	if int(count) != len(values) {
		return 0, fmt.Errorf("core: checkpoint holds %d values, graph has %d", count, len(values))
	}
	body := blob[ckptHeaderSize:]
	if want, got := binary.LittleEndian.Uint32(blob[9:]), crc32.ChecksumIEEE(body); got != want {
		return 0, fmt.Errorf("core: checkpoint for step %d checksum mismatch (got %#x want %#x)", step, got, want)
	}
	for i := range values {
		values[i] = math.Float64frombits(binary.LittleEndian.Uint64(body[8*i:]))
	}
	return step, nil
}

// writeCheckpoint persists this server's vertex vector for step and prunes
// checkpoints beyond the retention window. It runs inside the step-end
// barrier bracket, so the vector is the consistent global state of step.
func (s *server) writeCheckpoint(step int, st *StepStats) error {
	start := time.Now()
	blob := encodeCheckpoint(s.ckptBuf, step, s.state.values)
	s.ckptBuf = blob[:0]
	if err := s.store.Write(s.ckptName(step), blob); err != nil {
		return fmt.Errorf("core: server %d writing checkpoint for step %d: %w", s.node.ID(), step, err)
	}
	s.ckptSteps = append(s.ckptSteps, step)
	s.ckptCount++
	s.ckptBytes += int64(len(blob))
	for len(s.ckptSteps) > ckptRetain {
		old := s.ckptSteps[0]
		s.ckptSteps = s.ckptSteps[1:]
		if err := s.store.Remove(s.ckptName(old)); err != nil {
			return fmt.Errorf("core: server %d pruning checkpoint for step %d: %w", s.node.ID(), old, err)
		}
	}
	st.Checkpoint = time.Since(start)
	return nil
}

// restoreCheckpoint loads the checkpoint for step back into the vertex
// vector. The restored state has no known delta, so the frontier is reset:
// the first replayed step sweeps densely.
func (s *server) restoreCheckpoint(step int) error {
	s.frontier.reset()
	blob, err := s.store.Read(s.ckptName(step))
	if err != nil {
		return fmt.Errorf("core: server %d reading checkpoint for step %d: %w", s.node.ID(), step, err)
	}
	got, err := decodeCheckpoint(blob, s.state.values)
	if err != nil {
		return err
	}
	if got != step {
		return fmt.Errorf("core: server %d: checkpoint blob says step %d, name says %d", s.node.ID(), got, step)
	}
	return nil
}

// lastCkptStep returns the newest checkpoint this server holds for the
// current job, or -1.
func (s *server) lastCkptStep() int {
	if len(s.ckptSteps) == 0 {
		return -1
	}
	return s.ckptSteps[len(s.ckptSteps)-1]
}

// clearCheckpoints removes the previous job's checkpoint blobs; each job's
// checkpoints are its own (vertex vectors are per-program).
func (s *server) clearCheckpoints() error {
	for _, step := range s.ckptSteps {
		if err := s.store.Remove(s.ckptName(step)); err != nil {
			return fmt.Errorf("core: server %d clearing stale checkpoint for step %d: %w", s.node.ID(), step, err)
		}
	}
	s.ckptSteps = s.ckptSteps[:0]
	return nil
}
