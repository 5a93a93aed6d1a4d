package store

import (
	"fmt"

	"github.com/turbdb/turbdb/internal/field"
	"github.com/turbdb/turbdb/internal/grid"
	"github.com/turbdb/turbdb/internal/morton"
)

// IngestBlock slices a whole-domain block of one field at one time-step into
// atom blobs and stores the ones whose codes fall in this node's owned
// range. It returns the number of atoms stored.
//
// This is the ingestion path used when loading a synthetic dataset into a
// cluster: every node receives the full block and keeps only its shard.
func (s *Store) IngestBlock(fieldName string, step int, bl *field.Block) (int, error) {
	meta, err := s.FieldMeta(fieldName)
	if err != nil {
		return 0, err
	}
	if bl.NComp != meta.NComp {
		return 0, fmt.Errorf("store: ingest %q: block has %d comps, schema %d",
			fieldName, bl.NComp, meta.NComp)
	}
	if bl.Bounds != s.grid.Domain() {
		return 0, fmt.Errorf("store: ingest %q: block bounds %v are not the domain %v",
			fieldName, bl.Bounds, s.grid.Domain())
	}
	stored := 0
	seen := make(map[morton.Code]bool)
	for _, r := range s.Held() {
		for code := r.Lo; code < r.Hi; code++ {
			if seen[code] {
				continue // held ranges may overlap
			}
			seen[code] = true
			abox := s.grid.AtomBox(code)
			atom := field.NewBlock(abox, meta.NComp)
			if err := atom.CopyFrom(bl, grid.Point{}); err != nil {
				return stored, err
			}
			if err := s.Put(fieldName, step, code, atom.Bytes()); err != nil {
				return stored, err
			}
			stored++
		}
	}
	return stored, nil
}
