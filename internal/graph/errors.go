package graph

import (
	"errors"
	"fmt"
)

// Sentinel errors returned by graph mutations and lookups. Callers should
// test with errors.Is.
var (
	// ErrDuplicateEdge is returned when an edge with an existing ID is added.
	ErrDuplicateEdge = errors.New("graph: duplicate edge id")
	// ErrTimestampRegression is returned by the dynamic graph for a late
	// edge (Clock.Late).
	ErrTimestampRegression = errors.New("graph: edge timestamp regresses beyond slack")
	// ErrReservedID is returned when an edge uses the all-ones vertex or
	// edge ID, which the match representation reserves as its "unbound"
	// sentinel. Enforcing the reservation at the ingest boundary keeps
	// hostile or buggy sources from forging IDs that would corrupt match
	// identity downstream.
	ErrReservedID = errors.New("graph: all-ones id is reserved")
)

// ReservedVertexID and ReservedEdgeID are the all-ones IDs rejected by
// Dynamic.Apply; internal/match uses them as unbound-binding sentinels.
const (
	ReservedVertexID = ^VertexID(0)
	ReservedEdgeID   = ^EdgeID(0)
)

// EdgeError decorates an edge-related error with the offending ID.
type EdgeError struct {
	ID  EdgeID
	Err error
}

// Error implements error.
func (e *EdgeError) Error() string { return fmt.Sprintf("%v (edge %d)", e.Err, e.ID) }

// Unwrap exposes the wrapped sentinel.
func (e *EdgeError) Unwrap() error { return e.Err }
