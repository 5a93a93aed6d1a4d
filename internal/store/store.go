// Package store implements a database node's storage engine for raw
// simulation data: tables of atom records keyed by (time-step, Morton code),
// partitioned along contiguous Morton ranges into files that map onto the
// node's disk arrays.
//
// This is the stand-in for the SQL Server tables of the production system:
// each record is an 8³ sub-cube ("atom") of one stored field serialized as a
// float32 blob, and the combination of time-step index and Morton code of
// the atom's lower-left corner forms the record key. Reads performed inside
// a simulation charge seek + transfer time to the node's disk model, with
// the partition-to-array mapping making contiguous Morton ranges land on
// distinct arrays — exactly the property that lets the paper's partitioned
// table drive the arrays in parallel (Sec. 5.3).
package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"github.com/turbdb/turbdb/internal/diskmodel"
	"github.com/turbdb/turbdb/internal/faulttol"
	"github.com/turbdb/turbdb/internal/grid"
	"github.com/turbdb/turbdb/internal/morton"
	"github.com/turbdb/turbdb/internal/sim"
)

// ErrNotFound is returned when a requested atom record does not exist.
var ErrNotFound = errors.New("store: atom not found")

// Key identifies one atom record of one field.
type Key struct {
	Timestep int
	Code     morton.Code
}

// FieldMeta describes one stored field's schema.
type FieldMeta struct {
	Name  string
	NComp int
}

// Store is one node's raw-data storage engine. It is safe for concurrent
// use in real mode; in simulation mode the DES kernel serializes access.
type Store struct {
	grid  grid.Grid
	owned morton.Range // primary atom-code range (immutable)

	mu     sync.RWMutex
	extras []morton.Range            // replica/rebalance ranges adopted after construction; guarded by mu
	fields map[string]FieldMeta      // guarded by mu
	data   map[string]map[Key][]byte // guarded by mu

	// simulation hooks (nil in real mode)
	kernel *sim.Kernel
	dev    *diskmodel.Device
}

// Config configures a Store.
type Config struct {
	// Grid is the dataset geometry.
	Grid grid.Grid
	// Owned is the contiguous atom-code range this node stores.
	Owned morton.Range
	// Kernel and Device enable simulated I/O accounting; both nil for real
	// mode.
	Kernel *sim.Kernel
	Device *diskmodel.Device
}

// New creates an empty store.
func New(cfg Config) (*Store, error) {
	if cfg.Owned.Empty() {
		return nil, fmt.Errorf("store: empty owned range")
	}
	if (cfg.Kernel == nil) != (cfg.Device == nil) {
		return nil, fmt.Errorf("store: kernel and device must be set together")
	}
	return &Store{
		grid:   cfg.Grid,
		owned:  cfg.Owned,
		fields: make(map[string]FieldMeta),
		data:   make(map[string]map[Key][]byte),
		kernel: cfg.Kernel,
		dev:    cfg.Device,
	}, nil
}

// Grid returns the dataset geometry.
func (s *Store) Grid() grid.Grid { return s.grid }

// Owned returns the primary atom-code range this node stores.
func (s *Store) Owned() morton.Range { return s.owned }

// AdoptRange extends the store to also hold r — a replica range under k-way
// placement, or a range gained in a rebalance. Adopting a range the store
// already holds in full is a no-op; empty ranges are ignored. Data for the
// range is not materialized here: callers stream (or ingest) the atoms
// separately.
func (s *Store) AdoptRange(r morton.Range) {
	if r.Empty() {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.coversLocked(r) {
		return
	}
	s.extras = append(s.extras, r)
}

// coversLocked reports whether one held range fully contains r.
func (s *Store) coversLocked(r morton.Range) bool {
	if s.owned.Lo <= r.Lo && r.Hi <= s.owned.Hi {
		return true
	}
	for _, e := range s.extras {
		if e.Lo <= r.Lo && r.Hi <= e.Hi {
			return true
		}
	}
	return false
}

// Held returns every range this store holds: the primary first, then the
// adopted ranges in adoption order. Ranges may overlap after rebalances.
func (s *Store) Held() []morton.Range {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]morton.Range, 0, 1+len(s.extras))
	out = append(out, s.owned)
	out = append(out, s.extras...)
	return out
}

// Owns reports whether code falls in any held range.
func (s *Store) Owns(code morton.Code) bool {
	if s.owned.Contains(code) {
		return true
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.ownsLocked(code)
}

// ownsLocked is Owns with s.mu already held.
func (s *Store) ownsLocked(code morton.Code) bool {
	if s.owned.Contains(code) {
		return true
	}
	for _, e := range s.extras {
		if e.Contains(code) {
			return true
		}
	}
	return false
}

// HasAtom reports whether the atom's blob is materialized — unlike Owns,
// which only says the code falls in a held range. A freshly built or
// still-streaming store owns ranges it has no data for yet.
func (s *Store) HasAtom(fieldName string, step int, code morton.Code) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.data[fieldName][Key{Timestep: step, Code: code}]
	return ok
}

// Fields lists the stored field schemas, sorted by name.
func (s *Store) Fields() []FieldMeta {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]FieldMeta, 0, len(s.fields))
	for _, m := range s.fields {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// FieldMeta returns the schema of one field.
func (s *Store) FieldMeta(name string) (FieldMeta, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	m, ok := s.fields[name]
	if !ok {
		return FieldMeta{}, fmt.Errorf("store: unknown field %q", name)
	}
	return m, nil
}

// CreateField declares a field's schema; idempotent if the schema matches.
func (s *Store) CreateField(meta FieldMeta) error {
	if meta.Name == "" || meta.NComp < 1 {
		return fmt.Errorf("store: invalid field meta %+v", meta)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.fields[meta.Name]; ok {
		if old != meta {
			return fmt.Errorf("store: field %q already exists with %d comps", meta.Name, old.NComp)
		}
		return nil
	}
	s.fields[meta.Name] = meta
	s.data[meta.Name] = make(map[Key][]byte)
	return nil
}

// Put stores one atom blob. The code must fall in a held range and the
// blob length must match the field schema. A served step never changes:
// putting an atom the store already holds is a no-op when the bytes are
// equal (overlapping held ranges after a rebalance) and a permanent error
// when they differ, so nothing a peer keeps of an atom goes stale.
func (s *Store) Put(fieldName string, step int, code morton.Code, blob []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	meta, ok := s.fields[fieldName]
	if !ok {
		return fmt.Errorf("store: unknown field %q", fieldName)
	}
	if !s.ownsLocked(code) {
		return fmt.Errorf("store: atom %v outside held ranges (primary %v)", code, s.owned)
	}
	want := s.grid.PointsPerAtom() * meta.NComp * 4
	if len(blob) != want {
		return fmt.Errorf("store: blob for %q is %d bytes, want %d", fieldName, len(blob), want)
	}
	k := Key{Timestep: step, Code: code}
	if held, ok := s.data[fieldName][k]; ok {
		if !bytes.Equal(held, blob) {
			return faulttol.Permanentf("store: atom %v of %q at step %d is already held with other bytes; a served step never changes", code, fieldName, step)
		}
		return nil
	}
	s.data[fieldName][k] = blob
	return nil
}

// get fetches a blob without I/O accounting.
func (s *Store) get(fieldName string, step int, code morton.Code) ([]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	tbl, ok := s.data[fieldName]
	if !ok {
		return nil, fmt.Errorf("store: unknown field %q", fieldName)
	}
	blob, ok := tbl[Key{Timestep: step, Code: code}]
	if !ok {
		return nil, fmt.Errorf("%w: field %q step %d code %v", ErrNotFound, fieldName, step, code)
	}
	return blob, nil
}

// partitions is the number of table partitions (files) per node: one per
// RAID-5 array of the paper's nodes (Sec. 5). Contiguous sub-ranges of the
// owned range map to partitions, and partition i stripes to disk array
// i % arrays. It is a property of the modelled hardware, not a setting.
const partitions = 4

// stripe maps an atom code to the disk array its partition file lives on.
// Atoms outside the primary range (replica ranges adopted later) stripe by
// code so replica tables still spread across the arrays.
func (s *Store) stripe(code morton.Code) uint64 {
	if !s.owned.Contains(code) {
		return uint64(code) % partitions
	}
	span := uint64(s.owned.Hi - s.owned.Lo)
	if span == 0 {
		return 0
	}
	off := uint64(code - s.owned.Lo)
	return off * partitions / span
}

// ReadAtom fetches one atom blob, charging the disk model when running
// inside a simulation (p non-nil and the store was configured with a
// device).
func (s *Store) ReadAtom(p *sim.Proc, fieldName string, step int, code morton.Code) ([]byte, error) {
	blob, err := s.get(fieldName, step, code)
	if err != nil {
		return nil, err
	}
	if p != nil && s.dev != nil {
		s.dev.Read(p, s.stripe(code), len(blob))
	}
	return blob, nil
}

// ReadWindow is the number of outstanding reads one scan stream keeps in
// flight, modeling database readahead: even a single-process query drives
// more than one array (the paper notes SQL Server parallelizes I/O
// internally), but not all of them — which is why adding processes still
// improves I/O somewhat (Fig. 8).
const ReadWindow = 3

// ReadAtoms fetches a batch of atoms. In simulation mode the reads are
// issued asynchronously with at most ReadWindow outstanding, as a database
// scan with readahead would. The result maps code → blob; a missing atom
// fails the whole batch.
func (s *Store) ReadAtoms(p *sim.Proc, fieldName string, step int, codes []morton.Code) (map[morton.Code][]byte, error) {
	out := make(map[morton.Code][]byte, len(codes))
	for _, c := range codes {
		blob, err := s.get(fieldName, step, c)
		if err != nil {
			return nil, err
		}
		out[c] = blob
	}
	if p == nil || s.dev == nil || len(codes) == 0 {
		return out, nil
	}
	// charge simulated I/O: async window of reads
	window := s.kernel.NewResource("readahead", ReadWindow)
	done := s.kernel.NewLatch(0)
	for _, c := range codes {
		c := c
		done.Add(1)
		s.kernel.Go("read-atom", func(rp *sim.Proc) {
			rp.Acquire(window)
			s.dev.Read(rp, s.stripe(c), len(out[c]))
			rp.Release(window)
			done.Done()
		})
	}
	p.Wait(done)
	return out, nil
}

// CountAtoms returns how many atoms of a field exist at a step.
func (s *Store) CountAtoms(fieldName string, step int) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	for k := range s.data[fieldName] {
		if k.Timestep == step {
			n++
		}
	}
	return n
}

// --- on-disk persistence -------------------------------------------------

// fileMagic identifies turbdb atom table files.
const fileMagic = "TDBATOM1"

// Save writes the store's contents under dir: one file per (field,
// time-step), records sorted by Morton code.
func (s *Store) Save(dir string) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for name, tbl := range s.data {
		meta := s.fields[name]
		bySteps := map[int][]Key{}
		for k := range tbl {
			bySteps[k.Timestep] = append(bySteps[k.Timestep], k)
		}
		fdir := filepath.Join(dir, name)
		if err := os.MkdirAll(fdir, 0o755); err != nil {
			return fmt.Errorf("store: save: %w", err)
		}
		for step, keys := range bySteps {
			sort.Slice(keys, func(i, j int) bool { return keys[i].Code < keys[j].Code })
			path := filepath.Join(fdir, fmt.Sprintf("t%06d.atoms", step))
			if err := s.saveFile(path, meta, step, keys, tbl); err != nil {
				return err
			}
		}
	}
	return nil
}

func (s *Store) saveFile(path string, meta FieldMeta, step int, keys []Key, tbl map[Key][]byte) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("store: save: %w", err)
	}
	defer f.Close() //lint:allow droppederr backstop for early returns; the success path checks f.Close below
	w := bufio.NewWriter(f)
	if _, err := w.WriteString(fileMagic); err != nil {
		return err
	}
	hdr := make([]byte, 8*5)
	binary.LittleEndian.PutUint64(hdr[0:], uint64(s.grid.N))
	binary.LittleEndian.PutUint64(hdr[8:], uint64(s.grid.AtomSide))
	binary.LittleEndian.PutUint64(hdr[16:], uint64(meta.NComp))
	binary.LittleEndian.PutUint64(hdr[24:], uint64(step))
	binary.LittleEndian.PutUint64(hdr[32:], uint64(len(keys)))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	rec := make([]byte, 8)
	for _, k := range keys {
		binary.LittleEndian.PutUint64(rec, uint64(k.Code))
		if _, err := w.Write(rec); err != nil {
			return err
		}
		if _, err := w.Write(tbl[k]); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// Load reads previously saved atom files for one field from dir into the
// store. The field must have been created with a matching schema.
func (s *Store) Load(dir, fieldName string) error {
	meta, err := s.FieldMeta(fieldName)
	if err != nil {
		return err
	}
	fdir := filepath.Join(dir, fieldName)
	entries, err := os.ReadDir(fdir)
	if err != nil {
		return fmt.Errorf("store: load: %w", err)
	}
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) != ".atoms" {
			continue
		}
		if err := s.loadFile(filepath.Join(fdir, e.Name()), meta); err != nil {
			return err
		}
	}
	return nil
}

func (s *Store) loadFile(path string, meta FieldMeta) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("store: load: %w", err)
	}
	defer f.Close() //lint:allow droppederr read-only file, close errors carry no data loss
	r := bufio.NewReader(f)
	magic := make([]byte, len(fileMagic))
	if _, err := io.ReadFull(r, magic); err != nil {
		return fmt.Errorf("store: load %s: %w", path, err)
	}
	if string(magic) != fileMagic {
		return fmt.Errorf("store: %s is not an atom table file", path)
	}
	hdr := make([]byte, 8*5)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return fmt.Errorf("store: load %s: %w", path, err)
	}
	n := int(binary.LittleEndian.Uint64(hdr[0:]))
	atomSide := int(binary.LittleEndian.Uint64(hdr[8:]))
	ncomp := int(binary.LittleEndian.Uint64(hdr[16:]))
	step := int(binary.LittleEndian.Uint64(hdr[24:]))
	count := int(binary.LittleEndian.Uint64(hdr[32:]))
	if n != s.grid.N || atomSide != s.grid.AtomSide {
		return fmt.Errorf("store: %s geometry %d/%d does not match grid %d/%d",
			path, n, atomSide, s.grid.N, s.grid.AtomSide)
	}
	if ncomp != meta.NComp {
		return fmt.Errorf("store: %s has %d comps, schema says %d", path, ncomp, meta.NComp)
	}
	blobLen := s.grid.PointsPerAtom() * ncomp * 4
	rec := make([]byte, 8)
	for i := 0; i < count; i++ {
		if _, err := io.ReadFull(r, rec); err != nil {
			return fmt.Errorf("store: load %s record %d: %w", path, i, err)
		}
		code := morton.Code(binary.LittleEndian.Uint64(rec))
		blob := make([]byte, blobLen)
		if _, err := io.ReadFull(r, blob); err != nil {
			return fmt.Errorf("store: load %s record %d: %w", path, i, err)
		}
		if err := s.Put(meta.Name, step, code, blob); err != nil {
			return err
		}
	}
	return nil
}
