package optrace

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/memalloc"
)

// jsonTrace is the on-disk format: a small header guards against replaying
// files from incompatible versions.
type jsonTrace struct {
	Format  string  `json:"format"`
	Version int     `json:"version"`
	Events  []Event `json:"events"`
}

const (
	jsonFormat  = "gmlake-trace"
	jsonVersion = 1
)

// WriteJSON serializes the trace for later replay (ReadJSON).
func (t *Trace) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(jsonTrace{Format: jsonFormat, Version: jsonVersion, Events: t.Events})
}

// ReadJSON loads a trace written by WriteJSON and validates it: the header
// must match and every Free must reference a prior, still-live Alloc.
func ReadJSON(r io.Reader) (*Trace, error) {
	var jt jsonTrace
	dec := json.NewDecoder(r)
	if err := dec.Decode(&jt); err != nil {
		return nil, fmt.Errorf("optrace: decode: %w", err)
	}
	if jt.Format != jsonFormat {
		return nil, fmt.Errorf("optrace: not a %s file (format %q)", jsonFormat, jt.Format)
	}
	if jt.Version != jsonVersion {
		return nil, fmt.Errorf("optrace: unsupported version %d", jt.Version)
	}
	t := &Trace{Events: jt.Events}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// Validate checks stream well-formedness: allocation IDs are unique, sizes
// are positive and at most memalloc.MaxAllocSize, and frees reference live
// allocations exactly once.
func (t *Trace) Validate() error {
	live := make(map[int64]bool, len(t.Events)/2)
	for i, e := range t.Events {
		switch e.Op {
		case OpAlloc:
			if e.Size <= 0 {
				return fmt.Errorf("optrace: event %d: alloc of %d bytes", i, e.Size)
			}
			if e.Size > memalloc.MaxAllocSize {
				return fmt.Errorf("optrace: event %d: alloc of %d bytes is above the %d-byte request limit", i, e.Size, int64(memalloc.MaxAllocSize))
			}
			if live[e.ID] {
				return fmt.Errorf("optrace: event %d: duplicate alloc id %d", i, e.ID)
			}
			live[e.ID] = true
		case OpFree:
			if !live[e.ID] {
				return fmt.Errorf("optrace: event %d: free of unknown or freed id %d", i, e.ID)
			}
			delete(live, e.ID)
		default:
			return fmt.Errorf("optrace: event %d: unknown op %d", i, e.Op)
		}
	}
	return nil
}
