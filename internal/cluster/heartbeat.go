package cluster

import (
	"context"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/server"
)

// Liveness: every Heartbeat period the node probes all peers in parallel
// with OpHeartbeat. One missed beat makes a peer suspect, a configured run
// makes it dead — and death triggers exactly one takeover of the partners
// this node inherits, replaying the dead peer's journal. A peer that
// answers again is alive immediately (its own recovery replayed its
// journal on restart) and a later death starts a fresh takeover cycle.

func (n *Node) heartbeatLoop() {
	defer n.wg.Done()
	t := time.NewTicker(n.cfg.Heartbeat)
	defer t.Stop()
	done := n.d.Context().Done()
	for {
		select {
		case <-n.stopped:
			return
		case <-done:
			return
		case <-t.C:
			n.probeAll()
		}
	}
}

// probeAll probes every peer concurrently and waits for the round, so a
// slow peer delays only its own verdict, never the ticker's next round
// piling goroutines behind it.
func (n *Node) probeAll() {
	var wg sync.WaitGroup
	for _, p := range n.peers {
		wg.Add(1)
		go func(p *peer) {
			defer wg.Done()
			n.probe(p)
		}(p)
	}
	wg.Wait()
}

func (n *Node) probe(p *peer) {
	p.mu.Lock()
	p.seq++
	seq := p.seq
	p.mu.Unlock()
	ctx, cancel := context.WithTimeout(n.d.Context(), n.cfg.ProbeTimeout)
	defer cancel()
	var resp *server.HeartbeatResponse
	c, err := p.getClient(ctx, n.cfg.ProbeTimeout)
	if err == nil {
		resp, err = c.Heartbeat(ctx, server.HeartbeatRequest{From: n.cfg.Node, Seq: seq})
	}
	n.recordProbe(p, err == nil && resp != nil && resp.Node == p.id)
}

// recordProbe folds one probe outcome into the peer's state machine and
// fires the takeover when a death is declared.
func (n *Node) recordProbe(p *peer, ok bool) {
	p.mu.Lock()
	prev := p.state
	if ok {
		p.missed = 0
		p.state = core.PeerAlive
		if prev == core.PeerDead {
			// The peer is back (its own restart recovery replayed its
			// journal); a future death is a new incarnation to take over.
			p.takenOver = false
		}
	} else {
		p.missed++
		switch {
		case p.missed >= n.cfg.DeadAfter:
			p.state = core.PeerDead
		case p.missed >= n.cfg.SuspectAfter:
			p.state = core.PeerSuspect
		}
	}
	state, missed := p.state, p.missed
	takeover := state == core.PeerDead && !p.takenOver
	if takeover {
		p.takenOver = true
	}
	p.mu.Unlock()

	if state != prev {
		step := map[core.PeerState]string{
			core.PeerAlive:   obs.StepPeerAlive,
			core.PeerSuspect: obs.StepPeerSuspect,
			core.PeerDead:    obs.StepPeerDead,
		}[state]
		n.bus.Emit(obs.Event{
			Partner: p.id,
			Kind:    obs.KindCluster, Stage: obs.StageCluster, Step: step,
			Elapsed: time.Duration(missed) * n.cfg.Heartbeat,
		})
	}
	if takeover {
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			n.takeover(p)
		}()
	}
}

// takeover replays the dead peer's journal for the partners this node now
// owns. Other successors run the same scan concurrently against the same
// read-only file, each claiming its own partition; partners neither owns
// are skipped by the predicate and recovered by whichever node does. The
// takeover is counted only once its replay has returned, so a reader that
// sees the count also sees the restored exchanges.
func (n *Node) takeover(p *peer) {
	defer n.takeovers.Add(1)
	if n.cfg.JournalDir == "" {
		return
	}
	owns := func(partner string) bool { return n.ownerOf(partner) == n.cfg.Node }
	rep, err := n.hub.TakeOverJournal(n.d.Context(), JournalPath(n.cfg.JournalDir, p.id), owns)
	n.takenOver.Add(int64(rep.Restored + rep.DeadLetters + rep.Reenqueued + rep.Poisoned))
	if err != nil {
		n.bus.Emit(obs.Event{
			Partner: p.id,
			Kind:    obs.KindCluster, Stage: obs.StageCluster, Step: obs.StepTakeover,
			Err: err,
		})
	}
}
