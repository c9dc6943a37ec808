package mqo

import (
	"time"
)

// NodeStats is one DAG node's live counters. Sig is the canonical sharing
// key, stable across engines and runs.
type NodeStats struct {
	Sig    string `json:"sig"`
	Edges  int    `json:"edges"`
	IsLeaf bool   `json:"is_leaf"`
	Refs   int    `json:"refs"`
	// Consumers is how many attachments emit from this node; Refs additionally
	// counts parent links. Refs > 1 marks the node as shared.
	Consumers    int           `json:"consumers"`
	Window       time.Duration `json:"window"`
	Stored       int           `json:"stored"`
	Inserted     uint64        `json:"inserted"`
	Pruned       uint64        `json:"pruned"`
	Searches     uint64        `json:"searches"`
	Partitions   int           `json:"partitions"`
	JoinAttempts uint64        `json:"join_attempts"`
	JoinHits     uint64        `json:"join_hits"`
	WindowDrops  uint64        `json:"window_drops"`
}

// Stats is a snapshot of the DAG's structure and counters.
type Stats struct {
	Nodes       int `json:"nodes"`
	SharedNodes int `json:"shared_nodes"`
	Attachments int `json:"attachments"`
	// PartialMatches counts the matches stored across all node collections,
	// each once (the link partitions index them) — the engine's
	// memory-pressure metric, comparable with sjtree.Tree.PartialMatchCount.
	// Only a node with a parent stores matches, so a root no join reads
	// counts none.
	PartialMatches int         `json:"partial_matches" metric:"partials_stored"`
	LocalSearches  uint64      `json:"local_searches" metric:"mqo_local_searches"`
	SharedHits     uint64      `json:"shared_hits" metric:"mqo_shared_hits"`
	PerNode        []NodeStats `json:"per_node,omitempty"`
}

// PartialMatches returns the number of matches stored across the node
// collections, each once: those of nodes with a parent, since no other
// node stores any.
func (d *DAG) PartialMatches() int {
	total := 0
	for _, n := range d.nodes {
		total += n.rows.len()
	}
	return total
}

// Stats returns a snapshot with per-node detail in node creation order.
func (d *DAG) Stats() Stats {
	s := Stats{
		Nodes:          len(d.nodes),
		Attachments:    len(d.atts),
		PartialMatches: d.PartialMatches(),
		LocalSearches:  d.localSearches.Value(),
		SharedHits:     d.sharedHits.Value(),
	}
	for _, sig := range d.order {
		n := d.nodes[sig]
		if n.refs() > 1 {
			s.SharedNodes++
		}
		ns := NodeStats{
			Sig:          n.sig,
			Edges:        n.frag.Graph.NumEdges(),
			IsLeaf:       n.left == nil,
			Refs:         n.refs(),
			Consumers:    n.refs() - len(n.parents),
			Window:       n.window,
			Stored:       n.rows.len(),
			Inserted:     n.rows.inserted,
			Pruned:       n.rows.pruned,
			Searches:     n.searches,
			JoinAttempts: n.joinAttempts,
			JoinHits:     n.joinHits,
			WindowDrops:  n.windowDrops,
		}
		if n.left != nil {
			ns.Partitions = n.left.idx.keys.n + n.right.idx.keys.n
		}
		s.PerNode = append(s.PerNode, ns)
	}
	return s
}
