package graphstore

import (
	"bytes"
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"avgloc/internal/graph"
	"avgloc/internal/obs"
	"avgloc/internal/registry"
)

// DefaultMaxBytes is the memory budget of stores constructed without an
// explicit one (Shared, the cmd-layer defaults): enough to keep every graph
// of a typical sweep resident without letting a 10⁷-node campaign pin
// gigabytes.
const DefaultMaxBytes = 256 << 20

// Stats counts store traffic. Builds is the number of generator
// invocations — the metric the CI smoke asserts stays flat across a warm
// restart — and Loads the number of disk artifacts decoded in its place.
type Stats struct {
	Hits        int64 `json:"hits"`
	Misses      int64 `json:"misses"`
	Builds      int64 `json:"builds"`
	Loads       int64 `json:"loads"`
	Evictions   int64 `json:"evictions"`
	Quarantined int64 `json:"quarantined"`
	Entries     int   `json:"entries"`
	Bytes       int64 `json:"bytes"`
}

// Options carries the optional knobs of NewWithOptions.
type Options struct {
	// TamperDiskWrite, if non-nil, intercepts the raw file bytes of every
	// artifact write after the checksum header is attached — same contract
	// as resultstore.Options.TamperDiskWrite, and chaos.Injector's hook fits
	// both. The checksum layer must convert every injected corruption into a
	// quarantined rebuild, never a served wrong graph.
	TamperDiskWrite func(key string, raw []byte) (out []byte, drop bool)
}

// Store is a content-addressed cache of immutable *graph.Graph values keyed
// by canonical (family, params, seed): a byte-bounded memory LRU over built
// graphs, an optional checksummed disk tier of CSR artifacts, and a
// singleflight layer so concurrent requests for one key build it once.
// Graphs handed out are shared — callers must treat them as immutable,
// which every consumer of graph.Graph already does.
//
// The zero value is not usable; construct with New.
type Store struct {
	mu       sync.Mutex
	maxBytes int64
	curBytes int64
	ll       *list.List // front = most recently used
	index    map[string]*list.Element
	flight   map[string]*flight
	dir      string // "" = memory only

	// Counters are atomics, not fields under mu: metrics scrapes
	// (CounterFunc) must never contend with a graph build in progress.
	hits        atomic.Int64
	misses      atomic.Int64
	builds      atomic.Int64
	loads       atomic.Int64
	evictions   atomic.Int64
	quarantined atomic.Int64

	tamper func(key string, raw []byte) ([]byte, bool)

	// The disk tier is byte-bounded too (diskFactor × maxBytes): artifacts
	// are evicted oldest-first, so a long campaign over many distinct
	// families cannot fill the disk.
	diskCap   int64
	diskBytes int64
	diskKeys  []string
	diskSize  map[string]int64
}

// flight is one in-progress load-or-build; joiners wait on done and read
// g/err, which the leader writes before closing.
type flight struct {
	done chan struct{}
	g    *graph.Graph
	err  error
}

// diskFactor sizes the disk tier relative to the memory tier.
const diskFactor = 16

// QuarantineDir is the subdirectory corrupt artifacts are moved into. As in
// resultstore, quarantined files are evidence for the operator and the
// chaos harness, never read back as cache state.
const QuarantineDir = "quarantine"

// entryMagic heads every disk artifact, followed by the hex sha256 of the
// CSR payload and a newline.
const entryMagic = "avggraph1 "

type entry struct {
	key   string
	g     *graph.Graph
	bytes int64
}

// New returns a store holding roughly maxBytes of graphs in memory
// (maxBytes <= 0 selects DefaultMaxBytes). If dir is non-empty it is
// created and every built graph is also persisted there as a checksummed
// CSR artifact; misses fall back to it before invoking a generator.
func New(maxBytes int64, dir string) (*Store, error) {
	return NewWithOptions(maxBytes, dir, Options{})
}

// NewWithOptions is New with fault-injection hooks (see Options).
func NewWithOptions(maxBytes int64, dir string, opts Options) (*Store, error) {
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBytes
	}
	s := &Store{
		maxBytes: maxBytes,
		ll:       list.New(),
		index:    make(map[string]*list.Element),
		flight:   make(map[string]*flight),
		dir:      dir,
		tamper:   opts.TamperDiskWrite,
		diskCap:  diskFactor * maxBytes,
		diskSize: make(map[string]int64),
	}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("graphstore: %w", err)
		}
		if err := s.scanDisk(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

var (
	sharedOnce sync.Once
	shared     *Store
)

// Shared returns the process-wide default store: memory-only, DefaultMaxBytes.
// It is what scenario execution falls back to when no store is configured,
// so even a bare RunChunkOpts loop — a fleet worker without -graph-cache-dir —
// builds each graph once per process instead of once per chunk.
func Shared() *Store {
	sharedOnce.Do(func() {
		shared, _ = New(DefaultMaxBytes, "")
	})
	return shared
}

// Key returns the canonical content address of a graph: sha256 over a
// fixed-order rendering of the family name, its normalized parameters
// (sorted "param.k=v" lines — the same registry.Values.AppendCanonical
// machinery scenario content hashes use, so JSON field order can never
// split the cache) and, for random families only, the generator's PCG seed
// pair. Deterministic families omit the seed: every row and every master
// seed that asks for the same cycle gets the same artifact.
func Key(family string, params registry.Values, seed1, seed2 uint64) (string, error) {
	fam, err := registry.FindGraph(family)
	if err != nil {
		return "", err
	}
	norm, err := fam.Normalize(params)
	if err != nil {
		return "", err
	}
	return keyOf(fam, norm, seed1, seed2), nil
}

// keyOf renders the key of an already-normalized parameter set.
func keyOf(fam *registry.GraphFamily, norm registry.Values, seed1, seed2 uint64) string {
	var b strings.Builder
	b.WriteString("avggraph/v1\n")
	fmt.Fprintf(&b, "family=%s\n", fam.Name)
	norm.AppendCanonical(&b)
	if fam.Random {
		fmt.Fprintf(&b, "seed=%d/%d\n", seed1, seed2)
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:])
}

// Get returns the graph for (family, params, seed1, seed2), where the seed
// pair names the generator's PCG stream. Resolution order: memory LRU, an
// in-flight build of the same key, the disk tier (checksummed; corrupt
// artifacts are quarantined and rebuilt), and finally the generator itself
// — exactly fam.Build(params, rand.New(rand.NewPCG(seed1, seed2))), so a
// store-served graph is indistinguishable from a freshly built one and
// byte-identity of downstream results is preserved cold or warm.
//
// ctx carries the trace span parent (obs.FromCtx); builds and disk loads
// emit graph.build / graph.load spans. Memory hits stay span-free.
func (s *Store) Get(ctx context.Context, family string, params registry.Values, seed1, seed2 uint64) (*graph.Graph, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	fam, err := registry.FindGraph(family)
	if err != nil {
		return nil, err
	}
	norm, err := fam.Normalize(params)
	if err != nil {
		return nil, err
	}
	key := keyOf(fam, norm, seed1, seed2)

	s.mu.Lock()
	if el, ok := s.index[key]; ok {
		s.ll.MoveToFront(el)
		g := el.Value.(*entry).g
		s.hits.Add(1)
		s.mu.Unlock()
		return g, nil
	}
	if fl, ok := s.flight[key]; ok {
		s.mu.Unlock()
		select {
		case <-fl.done:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		if fl.err != nil {
			s.misses.Add(1)
			return nil, fl.err
		}
		s.hits.Add(1)
		return fl.g, nil
	}
	fl := &flight{done: make(chan struct{})}
	s.flight[key] = fl
	s.misses.Add(1)
	s.mu.Unlock()

	g, err := s.loadOrBuild(ctx, key, fam, norm, seed1, seed2)
	fl.g, fl.err = g, err
	s.mu.Lock()
	if err == nil {
		s.admitLocked(key, g)
	}
	delete(s.flight, key)
	s.mu.Unlock()
	close(fl.done)
	return g, err
}

// loadOrBuild resolves a memory miss: decode the disk artifact if present
// and intact, otherwise run the generator (and persist the result). Build
// errors are returned, never cached — parameter sets that fail validation
// cost one registry round per request, which is what callers expect.
func (s *Store) loadOrBuild(ctx context.Context, key string, fam *registry.GraphFamily, norm registry.Values, seed1, seed2 uint64) (*graph.Graph, error) {
	parent := obs.FromCtx(ctx)
	if s.dir != "" {
		if raw, err := os.ReadFile(s.path(key)); err == nil {
			span := parent.Span("graph.load", obs.A("family", fam.Name), obs.A("key", key))
			payload, verr := openEntry(raw)
			g := new(graph.Graph)
			if verr == nil {
				verr = g.UnmarshalBinary(payload)
			}
			if verr == nil {
				s.loads.Add(1)
				s.registerDiskFile(key, int64(len(raw)))
				span.End(obs.A("nodes", g.N()), obs.A("edges", g.M()))
				return g, nil
			}
			// A torn write, a bit flip, a version skew: quarantine the file
			// and fall through to a rebuild. Costs one generator run, never
			// serves a wrong graph.
			s.mu.Lock()
			s.quarantineLocked(key)
			s.mu.Unlock()
			span.End(obs.A("error", verr.Error()), obs.A("quarantined", true))
		}
	}
	span := parent.Span("graph.build", obs.A("family", fam.Name), obs.A("key", key))
	g, err := fam.Build(norm, rand.New(rand.NewPCG(seed1, seed2)))
	if err != nil {
		span.End(obs.A("error", err.Error()))
		return nil, err
	}
	s.builds.Add(1)
	span.End(obs.A("nodes", g.N()), obs.A("edges", g.M()))
	if s.dir != "" {
		s.persist(key, g)
	}
	return g, nil
}

// persist writes the sealed CSR artifact atomically (temp + rename). The
// disk tier is best-effort: a failed write costs a future rebuild, so it
// never fails the Get that produced the graph.
func (s *Store) persist(key string, g *graph.Graph) {
	payload, err := g.MarshalBinary()
	if err != nil {
		return
	}
	raw := sealEntry(payload)
	if s.tamper != nil {
		var drop bool
		if raw, drop = s.tamper(key, raw); drop {
			return // injected "missing file": the write never lands
		}
	}
	tmp, err := os.CreateTemp(s.dir, "graph-*")
	if err != nil {
		return
	}
	if _, err := tmp.Write(raw); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return
	}
	if err := os.Rename(tmp.Name(), s.path(key)); err != nil {
		os.Remove(tmp.Name())
		return
	}
	s.registerDiskFile(key, int64(len(raw)))
}

// registerDiskFile joins key to the disk bookkeeping (write, or a file that
// appeared after the startup scan) and prunes past the disk bound.
func (s *Store) registerDiskFile(key string, size int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.diskSize[key]; ok {
		s.diskBytes += size - old
		s.diskSize[key] = size
		return
	}
	s.diskSize[key] = size
	s.diskKeys = append(s.diskKeys, key)
	s.diskBytes += size
	s.pruneDiskLocked()
}

// pruneDiskLocked removes the oldest artifacts beyond the disk byte bound,
// always keeping the newest one. Caller holds s.mu.
func (s *Store) pruneDiskLocked() {
	for s.diskBytes > s.diskCap && len(s.diskKeys) > 1 {
		key := s.diskKeys[0]
		s.diskKeys = s.diskKeys[1:]
		s.diskBytes -= s.diskSize[key]
		delete(s.diskSize, key)
		os.Remove(s.path(key))
	}
}

// scanDisk indexes pre-existing artifacts oldest-first so a restarted
// process continues the previous eviction order.
func (s *Store) scanDisk() error {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("graphstore: %w", err)
	}
	type aged struct {
		key  string
		mod  int64
		size int64
	}
	var files []aged
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".csr") {
			continue
		}
		key := strings.TrimSuffix(name, ".csr")
		if !validKey(key) {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		files = append(files, aged{key, info.ModTime().UnixNano(), info.Size()})
	}
	sort.Slice(files, func(i, j int) bool { return files[i].mod < files[j].mod })
	for _, f := range files {
		s.diskKeys = append(s.diskKeys, f.key)
		s.diskSize[f.key] = f.size
		s.diskBytes += f.size
	}
	s.pruneDiskLocked()
	return nil
}

// quarantineLocked moves a corrupt artifact into dir/quarantine and drops
// it from the disk bookkeeping. Caller holds s.mu.
func (s *Store) quarantineLocked(key string) {
	qdir := filepath.Join(s.dir, QuarantineDir)
	if err := os.MkdirAll(qdir, 0o755); err == nil {
		os.Rename(s.path(key), filepath.Join(qdir, key+".csr"))
	} else {
		os.Remove(s.path(key))
	}
	if size, ok := s.diskSize[key]; ok {
		s.diskBytes -= size
		delete(s.diskSize, key)
		for i, k := range s.diskKeys {
			if k == key {
				s.diskKeys = append(s.diskKeys[:i], s.diskKeys[i+1:]...)
				break
			}
		}
	}
	s.quarantined.Add(1)
}

// validKey reports whether key is safe as a file name: the 64-hex-digit
// content address keyOf produces.
func validKey(key string) bool {
	if len(key) != 64 {
		return false
	}
	for _, c := range key {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func (s *Store) path(key string) string {
	return filepath.Join(s.dir, key+".csr")
}

// sealEntry frames a CSR payload for disk: magic, payload checksum,
// newline, payload — the resultstore framing with the graph magic.
func sealEntry(payload []byte) []byte {
	sum := sha256.Sum256(payload)
	out := make([]byte, 0, len(entryMagic)+hex.EncodedLen(len(sum))+1+len(payload))
	out = append(out, entryMagic...)
	out = append(out, hex.EncodeToString(sum[:])...)
	out = append(out, '\n')
	return append(out, payload...)
}

// openEntry verifies an artifact's framing and checksum and returns the CSR
// payload.
func openEntry(raw []byte) ([]byte, error) {
	if !bytes.HasPrefix(raw, []byte(entryMagic)) {
		return nil, fmt.Errorf("graphstore: artifact missing %q header", strings.TrimSpace(entryMagic))
	}
	rest := raw[len(entryMagic):]
	nl := bytes.IndexByte(rest, '\n')
	if nl < 0 {
		return nil, fmt.Errorf("graphstore: artifact header truncated")
	}
	payload := rest[nl+1:]
	sum := sha256.Sum256(payload)
	if want := string(rest[:nl]); want != hex.EncodeToString(sum[:]) {
		return nil, fmt.Errorf("graphstore: checksum mismatch")
	}
	return payload, nil
}

// graphBytes approximates the resident size of a graph's CSR arrays — the
// unit the memory budget is accounted in.
func graphBytes(g *graph.Graph) int64 {
	return 4*(int64(g.N())+1+8*int64(g.M())) + 64
}

// admitLocked inserts or refreshes key in the LRU and evicts from the cold
// end past the byte budget. The newest entry is never evicted, so a single
// graph larger than the budget still caches (a soft bound: resident bytes
// reach max(maxBytes, largest entry)). Caller holds s.mu.
func (s *Store) admitLocked(key string, g *graph.Graph) {
	if el, ok := s.index[key]; ok {
		s.ll.MoveToFront(el)
		return
	}
	e := &entry{key: key, g: g, bytes: graphBytes(g)}
	s.index[key] = s.ll.PushFront(e)
	s.curBytes += e.bytes
	for s.curBytes > s.maxBytes && s.ll.Len() > 1 {
		oldest := s.ll.Back()
		s.ll.Remove(oldest)
		oe := oldest.Value.(*entry)
		delete(s.index, oe.key)
		s.curBytes -= oe.bytes
		s.evictions.Add(1)
	}
}

// Len returns the number of in-memory entries.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ll.Len()
}

// Stats returns a snapshot of the traffic counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	entries, bytes := s.ll.Len(), s.curBytes
	s.mu.Unlock()
	return Stats{
		Hits:        s.hits.Load(),
		Misses:      s.misses.Load(),
		Builds:      s.builds.Load(),
		Loads:       s.loads.Load(),
		Evictions:   s.evictions.Load(),
		Quarantined: s.quarantined.Load(),
		Entries:     entries,
		Bytes:       bytes,
	}
}

// RegisterMetrics publishes the store's counters on r under the
// avg_graphstore_* names; the Prometheus endpoint and the JSON metrics
// document read the same atomics, so they can never disagree.
func (s *Store) RegisterMetrics(r *obs.Registry) {
	r.CounterFunc("avg_graphstore_hits_total", "Graph store hits (memory or singleflight join).", s.hits.Load)
	r.CounterFunc("avg_graphstore_misses_total", "Graph store misses (disk load or generator build required).", s.misses.Load)
	r.CounterFunc("avg_graphstore_builds_total", "Graph generator invocations.", s.builds.Load)
	r.CounterFunc("avg_graphstore_loads_total", "Graphs decoded from disk artifacts instead of built.", s.loads.Load)
	r.CounterFunc("avg_graphstore_evictions_total", "In-memory LRU evictions.", s.evictions.Load)
	r.CounterFunc("avg_graphstore_quarantined_total", "Disk artifacts that failed verification and were quarantined.", s.quarantined.Load)
	r.GaugeFunc("avg_graphstore_entries", "Graphs currently resident in memory.", func() float64 { return float64(s.Len()) })
	r.GaugeFunc("avg_graphstore_bytes", "Estimated bytes of graphs resident in memory (the LRU budget's fill level).", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(s.curBytes)
	})
}
