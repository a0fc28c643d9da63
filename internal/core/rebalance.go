package core

// Dynamic tile rebalancing (see docs/ARCHITECTURE.md, "Dynamic tile
// rebalancing"). A BSP superstep is gated by the slowest server, and the
// paper's static stage-two assignment leaves that straggler fixed for the
// whole run even though per-tile cost shifts as the active-vertex frontier
// moves. At each superstep boundary the engine therefore runs a rebalance
// phase, strictly bracketed by BSP barriers so its traffic can never
// interleave with update broadcasts:
//
//  1. every server sends its measured per-tile compute costs to rank 0
//     (statsMsg); rank 0 runs the costmodel straggler detector;
//  2. rank 0 broadcasts the migration plan — possibly empty — to every
//     server (planMsg);
//  3. each donor reads the victim tile's encoded blob from its local store,
//     ships it to the recipient (tileMsg, over the pipelined Sender when
//     one is running), evicts the tile via cache.Remove and drops its local
//     blob; each recipient persists the blob to its own store and rebuilds
//     the tile's metadata — the edge cache re-admits it on first access;
//  4. everyone re-enters the barrier with swapped assignment tables.
//
// Values stay bit-identical with rebalancing on or off: under All-in-All
// replication every server already holds every vertex value, tile target
// ranges are disjoint, and the swap happens only at the barrier, so which
// server computes a tile changes timing but never data.
//
// The three message kinds share the transport with comm update batches and
// are distinguished by their first byte (comm uses 0xB7). Within a phase a
// server knows exactly which kinds it still expects; kinds that arrive
// early (a donor's tile racing the coordinator's plan to a third server)
// are stashed and replayed. The payloads are untrusted input: every decoder
// bounds-checks, and tile bodies carry a CRC so a truncated or corrupted
// migration errors out instead of corrupting the receiving store.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sort"
	"time"

	"repro/internal/costmodel"
	"repro/internal/csr"
)

// RebalanceMode selects the dynamic tile rebalancer.
type RebalanceMode int

const (
	// RebalanceOff keeps the static stage-two assignment for the whole run.
	RebalanceOff RebalanceMode = iota
	// RebalanceAuto moves tiles off a measured straggler between supersteps
	// (the DefaultConfig setting). Active only on multi-server All-in-All
	// runs; otherwise the engine silently behaves like RebalanceOff.
	RebalanceAuto
)

// String names the mode for experiment output.
func (m RebalanceMode) String() string {
	if m == RebalanceAuto {
		return "auto"
	}
	return "off"
}

// Rebalance message kinds: first payload byte, disjoint from comm's 0xB7.
const (
	kindStats = 0xC1 // per-tile cost report, every server → rank 0
	kindPlan  = 0xC2 // migration plan, rank 0 → every server
	kindTile  = 0xC3 // encoded tile payload, donor → recipient
)

// defaultRebalanceMinStep suppresses planning when the straggler's measured
// step cost is below it: sub-millisecond steps are dominated by scheduler
// noise, and migrating tiles on noise ships bytes for nothing.
const defaultRebalanceMinStep = time.Millisecond

const (
	statsHeaderSize = 1 + 4 + 4     // magic, step, count
	statsRecordSize = 4 + 8 + 8     // tile id, nanos, bytes
	planHeaderSize  = 1 + 4 + 4     // magic, step, count
	planRecordSize  = 4 + 4 + 4     // tile, from, to
	tileHeaderSize  = 1 + 4 + 4 + 4 // magic, tile id, body length, body CRC
)

// rebalanceKind classifies a payload received during a rebalance phase.
func rebalanceKind(payload []byte) (byte, error) {
	if len(payload) == 0 {
		return 0, fmt.Errorf("core: rebalance: empty message")
	}
	switch payload[0] {
	case kindStats, kindPlan, kindTile:
		return payload[0], nil
	}
	return 0, fmt.Errorf("core: rebalance: unexpected message kind %#x", payload[0])
}

// appendStatsMsg encodes one server's per-tile costs for the coordinator.
func appendStatsMsg(dst []byte, step int, costs []costmodel.TileCost) []byte {
	dst = append(dst, kindStats)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(step))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(costs)))
	for _, c := range costs {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(c.ID))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(c.Nanos))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(c.Bytes))
	}
	return dst
}

// decodeStatsMsg parses a stats message, appending the costs to dst.
func decodeStatsMsg(msg []byte, dst []costmodel.TileCost) (step int, costs []costmodel.TileCost, err error) {
	if len(msg) < statsHeaderSize || msg[0] != kindStats {
		return 0, nil, fmt.Errorf("core: rebalance: malformed stats message (%d bytes)", len(msg))
	}
	step = int(binary.LittleEndian.Uint32(msg[1:]))
	count := binary.LittleEndian.Uint32(msg[5:])
	if uint64(len(msg)) != statsHeaderSize+uint64(count)*statsRecordSize {
		return 0, nil, fmt.Errorf("core: rebalance: stats message %d bytes, header says %d records", len(msg), count)
	}
	costs = dst
	for i := uint32(0); i < count; i++ {
		rec := msg[statsHeaderSize+i*statsRecordSize:]
		costs = append(costs, costmodel.TileCost{
			ID:    int(binary.LittleEndian.Uint32(rec)),
			Nanos: int64(binary.LittleEndian.Uint64(rec[4:])),
			Bytes: int64(binary.LittleEndian.Uint64(rec[12:])),
		})
	}
	return step, costs, nil
}

// appendPlanMsg encodes the coordinator's migration plan.
func appendPlanMsg(dst []byte, step int, moves []costmodel.Move) []byte {
	dst = append(dst, kindPlan)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(step))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(moves)))
	for _, m := range moves {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(m.Tile))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(m.From))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(m.To))
	}
	return dst
}

// decodePlanMsg parses a plan message.
func decodePlanMsg(msg []byte) (step int, moves []costmodel.Move, err error) {
	if len(msg) < planHeaderSize || msg[0] != kindPlan {
		return 0, nil, fmt.Errorf("core: rebalance: malformed plan message (%d bytes)", len(msg))
	}
	step = int(binary.LittleEndian.Uint32(msg[1:]))
	count := binary.LittleEndian.Uint32(msg[5:])
	if uint64(len(msg)) != planHeaderSize+uint64(count)*planRecordSize {
		return 0, nil, fmt.Errorf("core: rebalance: plan message %d bytes, header says %d moves", len(msg), count)
	}
	if count > 0 {
		moves = make([]costmodel.Move, 0, count)
	}
	for i := uint32(0); i < count; i++ {
		rec := msg[planHeaderSize+i*planRecordSize:]
		moves = append(moves, costmodel.Move{
			Tile: int(binary.LittleEndian.Uint32(rec)),
			From: int(binary.LittleEndian.Uint32(rec[4:])),
			To:   int(binary.LittleEndian.Uint32(rec[8:])),
		})
	}
	return step, moves, nil
}

// appendTileMsg encodes a migrating tile's blob. The CRC covers the body:
// the blob is about to be written to the recipient's store, so a truncated
// or bit-flipped transfer must fail here rather than poison later loads.
func appendTileMsg(dst []byte, tileID int, body []byte) []byte {
	dst = append(dst, kindTile)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(tileID))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(body)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(body))
	return append(dst, body...)
}

// decodeTileMsg parses a tile payload. The returned body aliases msg.
func decodeTileMsg(msg []byte) (tileID int, body []byte, err error) {
	if len(msg) < tileHeaderSize || msg[0] != kindTile {
		return 0, nil, fmt.Errorf("core: rebalance: malformed tile message (%d bytes)", len(msg))
	}
	tileID = int(binary.LittleEndian.Uint32(msg[1:]))
	bodyLen := binary.LittleEndian.Uint32(msg[5:])
	if uint64(len(msg)) != tileHeaderSize+uint64(bodyLen) {
		return 0, nil, fmt.Errorf("core: rebalance: tile message %d bytes, header says %d-byte body", len(msg), bodyLen)
	}
	body = msg[tileHeaderSize:]
	if want, got := binary.LittleEndian.Uint32(msg[9:]), crc32.ChecksumIEEE(body); got != want {
		return 0, nil, fmt.Errorf("core: rebalance: tile %d body checksum mismatch (got %#x want %#x)", tileID, got, want)
	}
	return tileID, body, nil
}

// stashMsg is a rebalance message that arrived before its phase step needed
// it (e.g. a donor's tile payload racing the coordinator's plan).
type stashMsg struct {
	kind    byte
	from    int
	payload []byte
}

// rebalancer is the per-server state of the dynamic tile rebalancer.
type rebalancer struct {
	ratio    float64 // straggler trigger (0 = costmodel default)
	minNanos int64   // suppress planning below this step cost
	hook     func(step int, costs [][]costmodel.TileCost) []costmodel.Move

	stash   []stashMsg           // in-phase out-of-order messages
	costBuf []costmodel.TileCost // reused local stats payload
	wireBuf []byte               // reused stats/plan encode buffer
}

// newRebalancer builds the per-server rebalancer from the engine config,
// or returns nil when rebalancing cannot run: single-server clusters have
// no peers to level across, and On-Demand replication does not hold the
// vertex replicas a migrated tile's gather would read.
func newRebalancer(cfg Config, numNodes int) *rebalancer {
	if cfg.Rebalance == RebalanceOff || numNodes < 2 || cfg.Replication != AllInAll {
		return nil
	}
	minStep := cfg.RebalanceMinStep
	switch {
	case minStep == 0:
		minStep = defaultRebalanceMinStep
	case minStep < 0:
		minStep = 0
	}
	return &rebalancer{
		ratio:    cfg.RebalanceRatio,
		minNanos: minStep.Nanoseconds(),
		hook:     cfg.RebalancePlanHook,
	}
}

// recvRebalanceMsg returns the next in-phase message of the wanted kind,
// stashing other rebalance kinds that arrive first. Only rebalance kinds
// can legally be in flight — the phase is bracketed by barriers — so any
// other payload is a protocol error. The returned payload is a copy the
// caller owns.
func (s *server) recvRebalanceMsg(want byte) (from int, payload []byte, err error) {
	r := s.rebal
	for i, m := range r.stash {
		if m.kind == want {
			r.stash = append(r.stash[:i], r.stash[i+1:]...)
			return m.from, m.payload, nil
		}
	}
	for {
		var m stashMsg
		err := s.node.RecvStream(1, func(from int, p []byte) error {
			if len(p) > 0 && p[0] == stepFrameMagic {
				// A duplicated update frame that leaked across the step
				// boundary (scripted WireDuplicate); stale, skip it.
				return nil
			}
			kind, err := rebalanceKind(p)
			if err != nil {
				return fmt.Errorf("core: server %d mid-rebalance: %w", s.node.ID(), err)
			}
			// The receive buffer is recycled when this callback returns.
			m = stashMsg{kind: kind, from: from, payload: append([]byte(nil), p...)}
			return nil
		})
		switch {
		case err != nil:
			return 0, nil, err
		case m.kind == want:
			return m.from, m.payload, nil
		case m.kind != 0:
			r.stash = append(r.stash, m)
		}
	}
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
			return fmt.Errorf("core: server %d dropping migrated tile %d: %w", s.node.ID(), meta.id, err)
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

// admitTile installs a migrated tile on this server: the blob is persisted
// to the local store and the tile metadata (target and source ranges, Bloom
// filter, size) is rebuilt from a validating decode, mirroring setup's
// ingest. The edge cache is not force-fed — the first post-migration access
// admits the tile through the ordinary GetOrLoadInto path, under whatever
// policy and capacity pressure the cache is running.
func (s *server) admitTile(id int, body []byte) error {
	if s.metaIndex(id) >= 0 {
		return fmt.Errorf("core: server %d received migrated tile %d it already owns", s.node.ID(), id)
	}
	// Decode (and thereby validate) before persisting: a corrupt payload
	// must never land in the local store.
	var tl csr.Tile
	if err := csr.DecodeInto(&tl, body); err != nil {
		return fmt.Errorf("core: server %d decoding migrated tile %d: %w", s.node.ID(), id, err)
	}
	if int(tl.ID) != id {
		return fmt.Errorf("core: server %d: migrated blob says tile %d, envelope says %d", s.node.ID(), tl.ID, id)
	}
	// Atomic replace: in a multi-tenant session a sibling job's runner may be
	// reading this very blob name (loadTile runs outside recoverMu), and a
	// truncate-then-write would hand it a short or empty file.
	if err := s.store.Write(tileBlobName(id), body); err != nil {
		return fmt.Errorf("core: server %d persisting migrated tile %d: %w", s.node.ID(), id, err)
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

// rebalanceStep is the superstep-boundary rebalance phase (steps 1–3 of the
// protocol above). It must run with both sides of the enclosing barriers in
// place: the caller barriers before (so no update traffic is in flight) and
// after (so no peer starts the next superstep while tiles are moving).
// Filled-in stats land in st.
func (s *server) rebalanceStep(step int, st *StepStats) error {
	start := time.Now()
	n := s.node
	r := s.rebal

	// 1. Per-tile costs of the step just finished, measured by processTile.
	costs := r.costBuf[:0]
	for k, meta := range s.metas {
		costs = append(costs, costmodel.TileCost{ID: meta.id, Nanos: s.outs[k].nanos, Bytes: meta.encBytes})
	}
	r.costBuf = costs[:0]

	// 2. Stats to rank 0; plan back. The coordinator plans from every
	// server's measurements (or the test hook's verbatim plan).
	var moves []costmodel.Move
	if n.ID() != 0 {
		msg := appendStatsMsg(r.wireBuf[:0], step, costs)
		r.wireBuf = msg[:0]
		if err := n.Send(0, msg); err != nil {
			return err
		}
		from, p, err := s.recvRebalanceMsg(kindPlan)
		if err != nil {
			return err
		}
		if from != 0 {
			return fmt.Errorf("core: server %d got a plan from non-coordinator %d", n.ID(), from)
		}
		planStep, m, err := decodePlanMsg(p)
		if err != nil {
			return err
		}
		if planStep != step {
			return fmt.Errorf("core: server %d got a plan for step %d during step %d", n.ID(), planStep, step)
		}
		moves = m
	} else {
		all := make([][]costmodel.TileCost, n.NumNodes())
		all[0] = costs
		for i := 1; i < n.NumNodes(); i++ {
			from, p, err := s.recvRebalanceMsg(kindStats)
			if err != nil {
				return err
			}
			statsStep, c, err := decodeStatsMsg(p, nil)
			if err != nil {
				return err
			}
			if statsStep != step {
				return fmt.Errorf("core: coordinator got stats for step %d during step %d", statsStep, step)
			}
			if from == 0 || all[from] != nil {
				return fmt.Errorf("core: coordinator got duplicate stats from server %d", from)
			}
			all[from] = c
		}
		if r.hook != nil {
			moves = r.hook(step, all)
		} else {
			moves = costmodel.PlanRebalance(all, r.ratio, r.minNanos)
		}
		msg := appendPlanMsg(r.wireBuf[:0], step, moves)
		r.wireBuf = msg[:0]
		if err := n.Broadcast(msg); err != nil {
			return err
		}
	}

	// 3. Execute the plan: donate first (this server streams at most its
	// own victims; the planner is single-donor so no two servers ever
	// stream at each other), then collect inbound tiles.
	inbound := make(map[int]int) // tile id → donor rank
	donated := false
	for _, mv := range moves {
		if mv.Tile < 0 || mv.Tile >= s.total || mv.From < 0 || mv.From >= n.NumNodes() ||
			mv.To < 0 || mv.To >= n.NumNodes() || mv.From == mv.To {
			return fmt.Errorf("core: server %d got invalid move %+v", n.ID(), mv)
		}
		// Every server applies every move to its ownership tables — the
		// counted receive protocol needs each peer's tile count, not just
		// this server's own donations and adoptions. The rebalancer only
		// runs with the full membership alive and checkpointing off, so the
		// base and current tables move together.
		s.ownedCnt[mv.From]--
		s.ownedCnt[mv.To]++
		s.baseOwner[mv.Tile] = mv.To
		s.curOwner[mv.Tile] = mv.To
		switch n.ID() {
		case mv.From:
			k := s.metaIndex(mv.Tile)
			if k < 0 {
				return fmt.Errorf("core: server %d asked to donate tile %d it does not own", n.ID(), mv.Tile)
			}
			blob, err := s.store.Read(s.metas[k].blob)
			if err != nil {
				return fmt.Errorf("core: server %d reading tile %d for migration: %w", n.ID(), mv.Tile, err)
			}
			wb := s.sender.Acquire()
			wb.Data = appendTileMsg(wb.Data[:0], mv.Tile, blob)
			if err := s.sender.Send(mv.To, wb); err != nil {
				return err
			}
			if err := s.dropTile(k); err != nil {
				return err
			}
			donated = true
			s.tilesOut++
			st.MigratedTiles++
			st.MigrationBytes += int64(len(blob))
		case mv.To:
			if _, dup := inbound[mv.Tile]; dup {
				return fmt.Errorf("core: server %d planned to receive tile %d twice", n.ID(), mv.Tile)
			}
			inbound[mv.Tile] = mv.From
		}
	}
	if donated {
		// Every payload must be on the wire before this donor re-enters the
		// barrier, or the next superstep could start with tiles in limbo.
		if err := s.sender.Flush(); err != nil {
			return err
		}
	}
	for len(inbound) > 0 {
		from, p, err := s.recvRebalanceMsg(kindTile)
		if err != nil {
			return err
		}
		id, body, err := decodeTileMsg(p)
		if err != nil {
			return err
		}
		donor, ok := inbound[id]
		if !ok {
			return fmt.Errorf("core: server %d received unplanned or duplicate tile %d", n.ID(), id)
		}
		if donor != from {
			return fmt.Errorf("core: server %d received tile %d from %d, plan says %d", n.ID(), id, from, donor)
		}
		delete(inbound, id)
		if err := s.admitTile(id, body); err != nil {
			return err
		}
		s.tilesIn++
	}
	if len(r.stash) != 0 {
		return fmt.Errorf("core: server %d ended rebalance with %d stray messages", n.ID(), len(r.stash))
	}
	st.Rebalance = time.Since(start)
	return nil
}
