package cluster

import (
	"repro/internal/core"
)

// status is the provider behind StatusSnapshot.Cluster: this node's view
// of peer liveness, the current partner→owner map, and the forward and
// takeover counters. Registered by Attach via Hub.SetClusterStatus.
func (n *Node) status() *core.ClusterStatus {
	cs := &core.ClusterStatus{
		Version:        core.ClusterVersion,
		Node:           n.cfg.Node,
		Forwarded:      n.forwarded.Load(),
		ForwardRetries: n.forwardRetries.Load(),
		ForwardFailed:  n.forwardFailed.Load(),
		ForwardedIn:    n.forwardedIn.Load(),
		Takeovers:      n.takeovers.Load(),
		TakenOver:      n.takenOver.Load(),
	}

	// Ownership of every configured trading partner, after reassignment.
	owned := map[string][]string{}
	model := n.hub.Snapshot().Model
	partners := make([]string, 0, len(model.Partners))
	for _, tp := range model.Partners {
		partners = append(partners, tp.ID)
	}
	if len(partners) > 0 {
		cs.Ownership = make(map[string]string, len(partners))
		for _, id := range partners {
			owner := n.ownerOf(id)
			cs.Ownership[id] = owner
			owned[owner] = append(owned[owner], id)
		}
	}

	for _, id := range n.order {
		ps := core.PeerStatus{Node: id, Addr: n.addrs[id], Partners: owned[id]}
		if id == n.cfg.Node {
			ps.State = core.PeerSelf
		} else {
			p := n.peers[id]
			p.mu.Lock()
			ps.State = p.state
			ps.MissedBeats = p.missed
			p.mu.Unlock()
			ps.Breaker = n.breakers.StateOf(id).String()
		}
		cs.Peers = append(cs.Peers, ps)
	}
	return cs
}
