package core

// Crash recovery (see docs/ARCHITECTURE.md, "Checkpointing & recovery").
// When a server crashes or hangs mid-job, the survivors' blocked barrier
// and receive calls fail with cluster.ErrMembershipChanged (or stall into
// an accusation that produces it), and each survivor independently enters
// the recovery protocol below. The protocol is a loop because membership
// can change again mid-recovery; every pass is computed from scratch off
// the acknowledged membership view, so repeated passes converge on the
// same answer no matter how the failures interleave:
//
//  1. acknowledge the membership epoch (a server that finds itself among
//     the dead — a false accusation — fences itself and stops);
//  2. barrier A: all survivors have acknowledged and stopped sending
//     step traffic;
//  3. marker exchange: every survivor broadcasts its newest checkpoint
//     step; the restore point is the minimum — survivors can disagree by
//     at most one checkpoint interval (a barrier wake race), which is
//     exactly why two checkpoints are retained;
//  4. barrier B: the restore consensus is complete everywhere;
//  5. tile reconciliation: the dead servers' tiles are re-dealt across
//     the survivors by the pure function tile.ReassignDead over the
//     *base* ownership table, and each survivor adopts its share by
//     re-reading the blobs the dead server persisted at setup (dead
//     directories are never written again, so re-reads are stable no
//     matter how many recovery passes run);
//  6. state restore: the checkpointed vertex vector is loaded (or the
//     job restarts from its initial values when no checkpoint exists),
//     staged partial traffic is discarded, and the sender pipeline is
//     rebuilt. Execution resumes at the step after the restore point.
//
// Determinism: under All-in-All replication every vertex belongs to
// exactly one tile's target range, so each vertex receives exactly one
// update per superstep regardless of which server computes which tile —
// re-execution after reassignment reproduces bit-identical values.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/comm"
	"repro/internal/csr"
	"repro/internal/disk"
	"repro/internal/tile"
)

// errServerKilled unwinds a server that is itself dead — scripted kill,
// fencing after a false accusation — out of the superstep loop. runJob
// turns it into a clean no-result exit; it never aborts the cluster.
var errServerKilled = errors.New("core: this server was killed")

// markerMagic is the first byte of a recovery marker; disjoint from comm
// (0xB7), tile step-frame (0xB8), job-envelope (0xBA) and end-of-step
// (0xBE) payloads, so step receive loops can discard stray duplicated
// markers, and the marker exchange stale step frames, by inspection.
const markerMagic = 0xC9

// markerSize is magic + epoch (u64) + newest checkpoint step (i64).
const markerSize = 1 + 8 + 8

// appendMarker appends a recovery marker for the given membership epoch.
// Pure append: multi-tenant callers prefix the job envelope first.
func appendMarker(dst []byte, epoch uint64, lastCkpt int) []byte {
	dst = append(dst, markerMagic)
	dst = binary.LittleEndian.AppendUint64(dst, epoch)
	return binary.LittleEndian.AppendUint64(dst, uint64(int64(lastCkpt)))
}

// decodeMarker parses a recovery marker.
func decodeMarker(msg []byte) (epoch uint64, lastCkpt int, err error) {
	if len(msg) != markerSize || msg[0] != markerMagic {
		return 0, 0, fmt.Errorf("core: malformed recovery marker (%d bytes)", len(msg))
	}
	epoch = binary.LittleEndian.Uint64(msg[1:])
	lastCkpt = int(int64(binary.LittleEndian.Uint64(msg[9:])))
	return epoch, lastCkpt, nil
}

// die removes this server from the job: a crash declares itself dead so
// survivors unblock immediately; a hang just stops participating and
// leaves detection to the survivors' timeouts. Either way the sender is
// torn down without flushing and the server becomes a zombie — its job
// loop keeps consuming submissions but runs none of them.
func (s *server) die(hang bool) error {
	if !hang {
		s.node.Crash()
	}
	if s.sender != nil {
		s.sender.Abort()
		s.sender = nil
	}
	s.shared.dead.Store(true)
	return errServerKilled
}

// canRecover reports whether err is a membership disturbance this job is
// equipped to survive: checkpointing must be on (the recovery protocol
// needs a restore consensus, even if the answer is "restart"), replication
// must be All-in-All (each survivor restores from its own checkpoint),
// and there must be peers to survive with.
func (s *server) canRecover(err error) bool {
	if s.ckptEvery <= 0 || s.cfg.Replication != AllInAll || s.node.NumNodes() < 2 {
		return false
	}
	return errors.Is(err, cluster.ErrMembershipChanged) || errors.Is(err, cluster.ErrRecvStall)
}

// coordRank returns the lowest-ranked live server — the coordinator role
// (result assembly, progress streaming) fails over to it when rank 0 dies.
func (s *server) coordRank() int {
	for i := 0; i < s.node.NumNodes(); i++ {
		if s.node.Alive(i) {
			return i
		}
	}
	return 0
}

// recoverFromFailure runs the recovery protocol and returns the restore
// step: execution resumes at restore+1 (restore is -1 when the job had no
// checkpoint yet and restarts from its initial state). The returned error
// is errServerKilled when this server was fenced, or a hard error.
func (s *server) recoverFromFailure() (restore int, err error) {
	n := s.node
	start := time.Now()
	// Tear the sender down first and wait for its drain goroutines: every
	// frame of the interrupted step must be on the wire before the first
	// recovery marker, so FIFO per-pair ordering lets receivers discard
	// all stale step traffic before the marker arrives.
	if s.sender != nil {
		s.sender.Abort()
		s.sender.Join()
		s.sender = nil
	}
	for {
		epoch, alive := n.AckMembership()
		s.ackedEpoch = epoch
		if !alive[n.ID()] {
			// Fenced: the quorum declared this server dead (a false
			// accusation after dropped frames, perhaps). It must stop, not
			// fight — the survivors have already reassigned its tiles.
			return 0, s.die(true)
		}
		// Barrier A: every survivor has acknowledged this epoch and sent
		// its last pre-recovery frame.
		if err := s.barrierErr(); err != nil {
			if errors.Is(err, cluster.ErrMembershipChanged) {
				continue
			}
			return 0, err
		}
		restore, retry, err := s.exchangeMarkers(epoch, alive)
		if err != nil {
			return 0, err
		}
		if retry {
			continue
		}
		// Barrier B: the restore consensus is complete on every survivor.
		if err := s.barrierErr(); err != nil {
			if errors.Is(err, cluster.ErrMembershipChanged) {
				continue
			}
			return 0, err
		}
		if err := s.reconcileTiles(alive); err != nil {
			return 0, err
		}
		if restore >= 0 {
			if err := s.restoreCheckpoint(restore); err != nil {
				return 0, err
			}
		} else {
			s.initJobState()
		}
		// Drop checkpoints newer than the consensus: execution is about to
		// replay those steps and re-write them.
		for len(s.ckptSteps) > 0 && s.ckptSteps[len(s.ckptSteps)-1] > restore {
			newest := s.ckptSteps[len(s.ckptSteps)-1]
			s.ckptSteps = s.ckptSteps[:len(s.ckptSteps)-1]
			if err := s.store.Remove(s.ckptName(newest)); err != nil {
				return 0, fmt.Errorf("core: server %d dropping post-restore checkpoint for step %d: %w", n.ID(), newest, err)
			}
		}
		// Partial traffic of the interrupted step is meaningless now.
		for i := range s.staged {
			s.staged[i] = s.staged[i][:0]
		}
		if n.NumNodes() > 1 {
			s.sender = n.NewSender(s.queueCap)
		}
		s.recoveries++
		s.recoveryTime += time.Since(start)
		return restore, nil
	}
}

// exchangeMarkers broadcasts this server's newest checkpoint step to every
// survivor and collects theirs, returning the minimum as the restore
// consensus. Stale step frames and epoch-mismatched markers are discarded;
// markers are deduped per sender (a scripted WireDuplicate may copy one).
// retry is true when membership changed mid-exchange — including when this
// server's own stall accused the peers that never sent a marker.
func (s *server) exchangeMarkers(epoch uint64, alive []bool) (restore int, retry bool, err error) {
	n := s.node
	me := n.ID()
	restore = s.lastCkptStep()
	buf := s.markerBuf[:0]
	if s.multi {
		// Job envelope first: the peers' routers deliver the marker to the
		// right job's mailbox.
		buf = comm.AppendJobHeader(buf, s.jobID)
	}
	msg := appendMarker(buf, epoch, restore)
	s.markerBuf = msg[:0]
	waiting := 0
	for p, ok := range alive {
		if !ok || p == me {
			continue
		}
		if err := n.Send(p, msg); err != nil {
			return 0, false, err
		}
		waiting++
	}
	if waiting == 0 {
		return restore, false, nil
	}
	seen := s.markerSeen
	if seen == nil {
		seen = make([]bool, n.NumNodes())
		s.markerSeen = seen
	}
	clear(seen)
	err = s.recvWhile(nil, func(from int, payload []byte) (bool, error) {
		if len(payload) == 0 || payload[0] != markerMagic {
			return false, nil // stale step frame from before the failure
		}
		e, last, err := decodeMarker(payload)
		if err != nil {
			return false, err
		}
		if e != epoch || seen[from] {
			return false, nil // old recovery round, or a duplicated frame
		}
		seen[from] = true
		restore = min(restore, last)
		waiting--
		return waiting == 0, nil
	})
	switch {
	case err == nil:
		return restore, false, nil
	case errors.Is(err, cluster.ErrRecvStall):
		// Whoever never sent a marker has died since the last declaration.
		for p, ok := range alive {
			if ok && p != me && !seen[p] {
				n.DeclareDead(p)
			}
		}
		return 0, true, nil
	case errors.Is(err, cluster.ErrMembershipChanged):
		return 0, true, nil
	}
	return 0, false, err
}

// reconcileTiles recomputes tile placement for the current membership view
// and makes this server's holdings match: tiles it should no longer own
// are dropped, tiles newly assigned to it are adopted by re-reading the
// blob the dead base owner persisted at setup. The placement is a pure
// function of (base ownership, alive set), recomputed from scratch on
// every pass, so survivors that entered recovery at different moments
// still converge on the identical assignment.
func (s *server) reconcileTiles(alive []bool) error {
	if s.multi {
		// Concurrent runners reconcile against private ownership tables but
		// share the tile store: serializing the passes makes the adopted-blob
		// writes sequential (and idempotent — every runner writes the same
		// bytes read from the same dead directory).
		s.shared.recoverMu.Lock()
		defer s.shared.recoverMu.Unlock()
	}
	me := s.node.ID()
	cur, err := tile.ReassignDead(s.baseOwner, alive)
	if err != nil {
		return err
	}
	for k := len(s.metas) - 1; k >= 0; k-- {
		if cur[s.metas[k].id] != me {
			if err := s.dropTile(k); err != nil {
				return err
			}
		}
	}
	for t, owner := range cur {
		if owner != me || s.metaIndex(t) >= 0 {
			continue
		}
		body, err := s.readDeadTile(s.baseOwner[t], t)
		if err != nil {
			return err
		}
		if err := s.admitTile(t, body); err != nil {
			return err
		}
		s.tilesAdopted++
	}
	return nil
}

// readDeadTile reads tile t's blob from the dead base owner's store
// directory. The dead directory is never written after the owner's death,
// so the read is stable across recovery passes; it is unthrottled — in a
// real deployment this is a DFS re-fetch, not local-disk traffic.
func (s *server) readDeadTile(owner, t int) ([]byte, error) {
	src, err := disk.NewStore(filepath.Join(s.workRoot, fmt.Sprintf("server-%d", owner)), disk.Config{})
	if err != nil {
		return nil, fmt.Errorf("core: server %d opening dead server %d's store: %w", s.node.ID(), owner, err)
	}
	defer src.Close()
	body, err := src.Read(tileBlobName(t))
	if err != nil {
		return nil, fmt.Errorf("core: server %d adopting tile %d from dead server %d: %w", s.node.ID(), t, owner, err)
	}
	return body, nil
}

// metaIndex returns the index of tile id in s.metas, or -1.
func (s *server) metaIndex(id int) int {
	k := sort.Search(len(s.metas), func(i int) bool { return s.metas[i].id >= id })
	if k < len(s.metas) && s.metas[k].id == id {
		return k
	}
	return -1
}

// dropTile removes the tile at meta index k from this server: the cache
// entry is evicted (freed capacity un-settles earlier admission declines,
// so the remaining workload re-admits), the local blob is deleted, and the
// per-tile scratch shrinks with the assignment table.
func (s *server) dropTile(k int) error {
	meta := s.metas[k]
	s.cache.Remove(meta.id)
	if !s.multi {
		// Multi-tenant runners keep the blob: the drop only narrows this
		// job's private ownership view, and a concurrent job (or a later
		// recovery pass) may still read the tile from the shared store.
		if err := s.store.Remove(meta.blob); err != nil {
			return fmt.Errorf("core: server %d dropping reassigned tile %d: %w", s.node.ID(), meta.id, err)
		}
	}
	if meta.filter != nil {
		s.bloomBytes -= int64(meta.filter.SizeBytes())
	}
	s.metas = append(s.metas[:k], s.metas[k+1:]...)
	s.updBufs = append(s.updBufs[:k], s.updBufs[k+1:]...)
	s.outs = s.outs[:len(s.metas)]
	return nil
}

// admitTile installs an adopted tile on this server: the blob is persisted
// to the local store and the tile metadata (target and source ranges, Bloom
// filter, size) is rebuilt from a validating decode, mirroring setup's
// ingest. The edge cache is not force-fed — the first access after adoption
// admits the tile through the ordinary GetOrLoadInto path, under whatever
// policy and capacity pressure the cache is running.
func (s *server) admitTile(id int, body []byte) error {
	if s.metaIndex(id) >= 0 {
		return fmt.Errorf("core: server %d adopting tile %d it already owns", s.node.ID(), id)
	}
	// Decode (and thereby validate) before persisting: a corrupt payload
	// must never land in the local store.
	var tl csr.Tile
	if err := csr.DecodeInto(&tl, body); err != nil {
		return fmt.Errorf("core: server %d decoding adopted tile %d: %w", s.node.ID(), id, err)
	}
	if int(tl.ID) != id {
		return fmt.Errorf("core: server %d: adopted blob says tile %d, owner table says %d", s.node.ID(), tl.ID, id)
	}
	// Atomic replace: in a multi-tenant session a sibling job's runner may be
	// reading this very blob name (loadTile runs outside recoverMu), and a
	// truncate-then-write would hand it a short or empty file.
	if err := s.store.Write(tileBlobName(id), body); err != nil {
		return fmt.Errorf("core: server %d persisting adopted tile %d: %w", s.node.ID(), id, err)
	}
	meta := s.newTileMeta(id, &tl, len(body))
	k := sort.Search(len(s.metas), func(i int) bool { return s.metas[i].id >= id })
	s.metas = append(s.metas, nil)
	copy(s.metas[k+1:], s.metas[k:])
	s.metas[k] = meta
	s.updBufs = append(s.updBufs, nil)
	copy(s.updBufs[k+1:], s.updBufs[k:])
	s.updBufs[k] = nil
	// outs is per-step scratch with no cross-step contents; keeping its
	// length in lockstep with metas is all that matters.
	s.outs = append(s.outs, tileOut{})
	return nil
}
