// Command oreoserve boots OREO's online serving layer: a long-lived
// HTTP service (internal/serve) over one optimizer per table, answering
// cost + survivor-skip-list queries from lock-free layout snapshots
// while reorganization decisions drain through background consumers.
//
// With no data flags it generates deterministic synthetic fixtures, so
// a smoke test is one line:
//
//	oreoserve -addr :8080 -rows 20000 &
//	curl -s localhost:8080/healthz
//	curl -s -X POST localhost:8080/v1/query \
//	  -d '{"table":"orders","preds":[{"col":"order_ts","has_lo":true,"has_hi":true,"lo_i":100,"hi_i":900}]}'
//
// With -csv DIR it ingests real data instead: every *.csv file in the
// directory becomes one served table (named after the file), with
// column types inferred from the values and the first integer column as
// the initial sort. Queries with "execute": true then scan the actual
// ingested rows:
//
//	oreoserve -addr :8080 -csv ./data &
//	curl -s -X POST localhost:8080/v1/query -d '{"table":"orders",
//	  "execute":true,
//	  "preds":[{"col":"order_ts","has_lo":true,"has_hi":true,"lo_i":100,"hi_i":900}],
//	  "aggs":[{"op":"count"},{"op":"sum","col":"amount"}]}'
//
// Live writes land through POST /v2/tables/{t}/append (leaders only):
// rows go to an unpartitioned delta segment that every query scans, and
// a background fold repartitions them into the base layout once the
// delta reaches -compact-threshold rows (or on explicit
// POST /v2/tables/{t}/compact). Followers receive both appends and
// folds through the replication stream.
//
// With -state DIR the server loads warm-start snapshots
// (DIR/<table>.state.json) at boot — resuming each table's converged
// layout with a hot cost memo, plus any appended rows the boot source
// cannot reproduce (compacted tail and live delta) — and writes fresh
// snapshots on graceful shutdown (SIGINT/SIGTERM).
//
// With -follow URL the process boots as a read replica instead of a
// leader: it loads the same data (same -csv/-tables/-rows/-seed flags
// as the leader), runs no optimizer, subscribes to the leader's
// decision stream at URL, and serves the full read surface
// bit-identically to the leader while forwarding observed queries back
// upstream. A leader serves the replication endpoints automatically;
// -advertise names the URL operators should point followers at
// (surfaced on /healthz):
//
//	oreoserve -addr :8080 -csv ./data -advertise http://leader:8080 &
//	oreoserve -addr :8081 -csv ./data -follow http://leader:8080 &
//	curl -s localhost:8080/healthz | jq .layout_epochs   # leader epochs
//	curl -s localhost:8081/healthz | jq .layout_epochs   # follower epochs = lag
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"oreo"
	"oreo/internal/ingest"
	"oreo/internal/replica"
	"oreo/internal/serve"
)

func main() {
	var (
		addr    = flag.String("addr", ":8080", "listen address")
		tables  = flag.String("tables", "orders", "comma-separated fixture tables to serve (orders, events)")
		csvDir  = flag.String("csv", "", "directory of CSV files to serve, one table per file (overrides -tables/-rows fixtures)")
		rows    = flag.Int("rows", 20000, "rows per fixture table")
		alpha   = flag.Float64("alpha", 40, "relative reorganization cost")
		window  = flag.Int("window", 200, "sliding-window size")
		parts   = flag.Int("partitions", 0, "target partitions per layout (0 = derive)")
		seed    = flag.Int64("seed", 1, "fixture and optimizer seed")
		queue   = flag.Int("queue", serve.DefaultQueueSize, "observation queue size per table")
		traceN  = flag.Int("trace", 256, "decision-trace capacity per table (0 disables /trace)")
		stateIn = flag.String("state", "", "directory for warm-start snapshots (load at boot, save at shutdown)")
		scanPar = flag.Int("scan-parallelism", 0, "worker goroutines per executed scan (0 = NumCPU, 1 = sequential; capped at NumCPU, results identical at any setting)")
		compact = flag.Int("compact-threshold", 0, "delta rows that trigger automatic compaction after an append (0 = default, negative = only explicit /compact)")

		// Replication topology. A leader always serves the replication
		// endpoints; -follow turns the process into a read replica of
		// the named leader instead.
		follow    = flag.String("follow", "", "leader URL to follow as a read replica (no local optimizer)")
		advertise = flag.String("advertise", "", "URL followers should subscribe to, shown on /healthz (leader only)")
		archive   = flag.String("archive", "", "decision-log archive directory: a leader archives its own stream there; a follower replays it before subscribing, so the leader answers with a resume instead of a fresh snapshot")

		// Connection hygiene. Without a header timeout a client that
		// dribbles header bytes holds a connection (and its goroutine)
		// forever — the classic slow-loris. The read timeout bounds the
		// WHOLE body read, so it defaults off: /v2/query/stream requests
		// legitimately stay open for as long as a replay runs. Set it
		// only on deployments that never stream.
		readHeaderTO = flag.Duration("read-header-timeout", 10*time.Second, "time limit to receive request headers")
		readTO       = flag.Duration("read-timeout", 0, "time limit to read an entire request body (0 = none; bounds /v2/query/stream uploads too — leave 0 when streaming)")
		idleTO       = flag.Duration("idle-timeout", 2*time.Minute, "time an idle keep-alive connection is held open")
	)
	flag.Parse()

	sources := buildSources(*csvDir, *tables, *rows, *seed)
	if len(sources) == 0 {
		log.Fatal("oreoserve: no tables")
	}
	var names []string
	for _, src := range sources {
		names = append(names, src.name)
	}

	var (
		srv *serve.Server
		fol *replica.Follower
	)
	if *follow != "" {
		// Follower: same data, no optimizer — state is replicated from
		// the leader, so warm-start snapshots have nothing to add. The
		// directory still matters for one thing: a promotion records its
		// fencing term there, so a later reboot as a leader (-state, no
		// -follow) resumes the adopted term instead of regressing to 1.
		if *stateIn != "" {
			log.Print("oreoserve: follower mode uses -state only to persist the fencing term on promotion (serving state replicates from the leader)")
		}
		var tabs []replica.TableData
		for _, src := range sources {
			tabs = append(tabs, replica.TableData{Name: src.name, Dataset: src.ds})
		}
		var err error
		fol, err = replica.NewFollower(replica.FollowerConfig{Upstream: *follow, Tables: tabs, ScanParallelism: *scanPar, ArchiveDir: *archive})
		if err != nil {
			log.Fatalf("oreoserve: %v", err)
		}
		srv = serve.NewServer(fol.Core(), serve.Config{})
		// A follower can be promoted to leader at runtime, so its mux
		// carries the leader-only endpoints from boot: promotion itself,
		// and the replication endpoints answering 503 until a promotion
		// installs a publisher behind them (ServeMux registration is not
		// safe once serving has started; an atomic handler swap is).
		promo := &promoteServer{fol: fol, stateDir: *stateIn}
		for _, src := range sources {
			if promo.cfg.Tables == nil {
				promo.cfg = serve.PromoteConfig{
					QueueSize:        *queue,
					CompactThreshold: *compact,
					Advertise:        *advertise,
					Tables:           make(map[string]serve.PromoteTable, len(sources)),
				}
			}
			promo.cfg.Tables[src.name] = serve.PromoteTable{
				Config: oreo.Config{
					Alpha:         *alpha,
					WindowSize:    *window,
					Partitions:    *parts,
					Seed:          *seed,
					TraceCapacity: *traceN,
				},
			}
		}
		srv.Mount("POST /v2/cluster/promote", http.HandlerFunc(promo.handlePromote))
		srv.Mount("POST /v2/replication/subscribe", promo.delegate((*replica.Publisher).SubscribeHandler))
		srv.Mount("POST /v2/replication/observe", promo.delegate((*replica.Publisher).ObserveHandler))
		go func() {
			// Don't block boot on catch-up: /healthz honestly reports
			// "initializing" until the first snapshots land.
			if err := fol.WaitReady(context.Background()); err != nil {
				log.Fatalf("oreoserve: replication failed: %v", err)
			}
			log.Printf("oreoserve: follower caught up with %s", *follow)
		}()
	} else {
		m := oreo.NewMulti()
		// Warm-start restores split in two: the grown base feeds the
		// optimizer here, while restored delta rows must wait for the
		// serving core and re-enter through the live write path below.
		seedRows := make(map[string]int, len(sources))
		deltas := make(map[string]*oreo.Dataset)
		for _, src := range sources {
			name, ds, sortCol := src.name, src.ds, src.sortCol
			seedRows[name] = ds.NumRows()
			cfg := oreo.Config{
				Alpha:         *alpha,
				WindowSize:    *window,
				Partitions:    *parts,
				InitialSort:   []string{sortCol},
				Seed:          *seed,
				TraceCapacity: *traceN,
			}
			if *stateIn != "" {
				if st := loadState(statePath(*stateIn, name), ds); st != nil {
					cfg.Initial = st.layout
					cfg.InitialSort = nil
					ds = st.base
					deltaRows := 0
					if st.delta != nil && st.delta.NumRows() > 0 {
						deltas[name] = st.delta
						deltaRows = st.delta.NumRows()
					}
					log.Printf("table %s: resumed layout %q (warm=%v, memo entries=%d, base rows=%d, delta rows=%d)",
						name, st.layout.Name, st.warm, st.layout.Engine().Stats().Entries,
						st.base.NumRows(), deltaRows)
				}
			}
			if err := m.AddTable(name, ds, cfg); err != nil {
				log.Fatalf("oreoserve: %v", err)
			}
		}
		var err error
		srv, err = serve.New(m, serve.Config{
			QueueSize:        *queue,
			Advertise:        *advertise,
			ScanParallelism:  *scanPar,
			CompactThreshold: *compact,
			SeedRows:         seedRows,
		})
		if err != nil {
			log.Fatalf("oreoserve: %v", err)
		}
		for _, src := range sources {
			delta, ok := deltas[src.name]
			if !ok {
				continue
			}
			ack, err := srv.Core().AppendDataset(src.name, delta)
			if err != nil {
				log.Fatalf("oreoserve: restoring %s delta: %v", src.name, err)
			}
			log.Printf("table %s: restored %d delta rows (delta now %d)", src.name, delta.NumRows(), ack.DeltaRows)
		}
		// The fencing term survives restarts: a leader that was ever at
		// term 2+ (it was promoted, or restored a promoted predecessor's
		// state) must republish at that term, or every follower that
		// applied the higher term would fence it out on sight. Recover
		// the highest term any persisted source proves, then re-persist
		// the adopted one immediately — not just at graceful shutdown.
		var pubGen uint64
		if *stateIn != "" {
			g, err := replica.LoadTerm(*stateIn)
			if err != nil {
				log.Fatalf("oreoserve: %v", err)
			}
			pubGen = g
		}
		if *archive != "" {
			g, err := replica.ArchiveGeneration(*archive)
			if err != nil {
				log.Fatalf("oreoserve: %v", err)
			}
			if g > pubGen {
				pubGen = g
			}
		}
		pub, err := replica.NewPublisher(srv.Core(), replica.PublisherConfig{Generation: pubGen})
		if err != nil {
			log.Fatalf("oreoserve: %v", err)
		}
		pub.Mount(srv)
		if pubGen > 1 {
			log.Printf("oreoserve: restored fencing term %d", pub.Generation())
		}
		if *stateIn != "" {
			if err := replica.SaveTerm(*stateIn, pub.Generation()); err != nil {
				log.Fatalf("oreoserve: %v", err)
			}
		}
	}

	// A leader with -archive tails its own decision stream to disk: the
	// archiver is an ordinary replication subscriber pointed at this
	// process, so it needs no privileged hooks and archives exactly what
	// any follower would have seen. It starts before the listener is up
	// and simply retries until the subscribe endpoint answers.
	var arch *replica.Archiver
	if *archive != "" && *follow == "" {
		var err error
		arch, err = replica.NewArchiver(replica.ArchiverConfig{Upstream: selfURL(*addr), Dir: *archive})
		if err != nil {
			log.Fatalf("oreoserve: %v", err)
		}
	}

	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: *readHeaderTO,
		ReadTimeout:       *readTO,
		IdleTimeout:       *idleTO,
	}
	go func() {
		if err := hs.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatalf("oreoserve: %v", err)
		}
	}()
	if fol != nil {
		log.Printf("oreoserve: following %s, serving tables %v on %s", *follow, names, *addr)
	} else {
		log.Printf("oreoserve: serving tables %v on %s", names, *addr)
	}

	// SIGINT and SIGTERM both take the graceful path: stop accepting,
	// drain, and (leaders with -state) persist serving state — a ^C in
	// a terminal must not cost the warm start a supervisor's TERM keeps.
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop
	log.Print("oreoserve: shutting down")

	// Stop accepting requests, then drain the decision loops, then
	// persist serving state so the next boot starts hot. A follower
	// closes both its replication loop and the server over the shared
	// core; Core.Close is idempotent by contract.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		log.Printf("oreoserve: http shutdown: %v", err)
	}
	if arch != nil {
		arch.Close()
	}
	if fol != nil {
		fol.Close()
	}
	srv.Close()
	if *stateIn != "" && fol == nil {
		for _, name := range names {
			// ReplicaPosition is the coherent serving view: layout, grown
			// base, and uncompacted delta captured together, so the saved
			// document replays to exactly the rows queries were seeing.
			pos, ok := srv.Core().ReplicaPosition(name)
			if !ok {
				continue
			}
			if err := saveState(statePath(*stateIn, name), pos); err != nil {
				log.Printf("oreoserve: saving %s state: %v", name, err)
			} else {
				deltaRows := 0
				if pos.Delta != nil {
					deltaRows = pos.Delta.NumRows()
				}
				log.Printf("table %s: saved layout %q (%d rows + %d delta)",
					name, pos.Snapshot.Serving.Name, pos.Dataset.NumRows(), deltaRows)
			}
		}
	}
}

// selfURL derives the URL this process is reachable at from its listen
// address, for the self-subscribing archiver.
func selfURL(addr string) string {
	if strings.HasPrefix(addr, ":") {
		return "http://127.0.0.1" + addr
	}
	return "http://" + addr
}

// promoteServer wires the runtime role flip into a follower's mux:
// POST /v2/cluster/promote detaches replication, promotes the core,
// and installs a publisher behind the pre-mounted replication
// endpoints, which answer 503 until then.
type promoteServer struct {
	mu       sync.Mutex
	fol      *replica.Follower
	cfg      serve.PromoteConfig
	stateDir string
	pub      atomic.Pointer[replica.Publisher]
}

func (p *promoteServer) handlePromote(w http.ResponseWriter, r *http.Request) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.pub.Load() != nil {
		writeJSONStatus(w, http.StatusBadRequest, serve.ErrorResponse{Error: "already promoted"})
		return
	}
	pub, err := replica.Promote(p.fol, p.cfg, replica.PublisherConfig{})
	if err != nil {
		log.Printf("oreoserve: promotion failed: %v", err)
		writeJSONStatus(w, http.StatusServiceUnavailable, serve.ErrorResponse{Error: err.Error()})
		return
	}
	p.pub.Store(pub)
	// Persist the adopted term before announcing it: once followers have
	// seen the higher term, a restart of this process at a lower one is
	// terminally fenced, so the term file must exist first.
	if p.stateDir != "" {
		if err := replica.SaveTerm(p.stateDir, pub.Generation()); err != nil {
			log.Printf("oreoserve: persisting fencing term: %v", err)
		}
	}
	h := p.fol.Core().Health()
	log.Printf("oreoserve: promoted to leader at generation %d (epochs %v)", h.Generation, h.LayoutEpochs)
	writeJSONStatus(w, http.StatusOK, h)
}

// delegate adapts a Publisher handler method into a handler that
// answers 503 until a promotion has installed the publisher.
func (p *promoteServer) delegate(method func(*replica.Publisher) http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		pub := p.pub.Load()
		if pub == nil {
			writeJSONStatus(w, http.StatusServiceUnavailable, serve.ErrorResponse{Error: "this node is a follower; replication endpoints activate on promotion"})
			return
		}
		method(pub).ServeHTTP(w, r)
	})
}

func writeJSONStatus(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func statePath(dir, table string) string {
	return filepath.Join(dir, table+".state.json")
}

// restoredState is one table's warm-start result: the resumed layout
// over the grown base (boot source + compacted tail) and the delta
// rows to replay through the live write path.
type restoredState struct {
	layout *oreo.Layout
	base   *oreo.Dataset
	delta  *oreo.Dataset
	warm   bool
}

func loadState(path string, boot *oreo.Dataset) *restoredState {
	f, err := os.Open(path)
	if err != nil {
		return nil // cold boot: no snapshot yet
	}
	defer f.Close()
	l, warm, base, delta, err := oreo.LoadStateWithData(f, boot)
	if err != nil {
		log.Printf("oreoserve: %s unusable (%v); cold boot", path, err)
		return nil
	}
	return &restoredState{layout: l, base: base, delta: delta, warm: warm}
}

func saveState(path string, pos serve.Position) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := oreo.SaveStateWithData(f, pos.Snapshot.Serving, pos.Dataset, pos.SeedRows, pos.Delta); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// tableSource is one table to serve, from either data source.
type tableSource struct {
	name    string
	ds      *oreo.Dataset
	sortCol string
}

// buildSources assembles the served tables: ingested CSV files when
// -csv is set, deterministic synthetic fixtures otherwise. Failures are
// fatal — a server that silently drops a table it was asked to serve
// answers the wrong questions.
func buildSources(csvDir, tables string, rows int, seed int64) []tableSource {
	var out []tableSource
	if csvDir != "" {
		loaded, err := ingest.LoadDir(csvDir)
		if err != nil {
			log.Fatalf("oreoserve: %v", err)
		}
		for _, t := range loaded {
			// Spell out the inferred types: one stray textual cell
			// legally demotes a numeric column to string (the widening
			// ladder reads every row), and a column an operator expected
			// to be numeric answering range predicates with zero rows is
			// far easier to diagnose from this line than from results.
			schema := t.Dataset.Schema()
			typed := make([]string, schema.NumCols())
			for i := range typed {
				c := schema.Col(i)
				typed[i] = c.Name + ":" + c.Type.String()
			}
			log.Printf("table %s: ingested %d rows from CSV, schema [%s] (sort on %s)",
				t.Name, t.Dataset.NumRows(), strings.Join(typed, " "), t.SortCol)
			out = append(out, tableSource{name: t.Name, ds: t.Dataset, sortCol: t.SortCol})
		}
		return out
	}
	for _, name := range strings.Split(tables, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		ds, sortCol, err := buildFixture(name, rows, seed)
		if err != nil {
			log.Fatalf("oreoserve: %v", err)
		}
		out = append(out, tableSource{name: name, ds: ds, sortCol: sortCol})
	}
	return out
}

// buildFixture generates one of the named deterministic synthetic
// tables. The orders table drifts between time-range and status
// workloads nicely; events adds a second, column-disjoint table for
// multi-table routing.
func buildFixture(name string, rows int, seed int64) (*oreo.Dataset, string, error) {
	rng := rand.New(rand.NewSource(seed))
	switch name {
	case "orders":
		schema := oreo.NewSchema(
			oreo.Column{Name: "order_ts", Type: oreo.Int64},
			oreo.Column{Name: "status", Type: oreo.String},
			oreo.Column{Name: "amount", Type: oreo.Float64},
		)
		statuses := []string{"cancelled", "delivered", "pending", "returned"}
		b := oreo.NewDatasetBuilder(schema, rows)
		for i := 0; i < rows; i++ {
			b.AppendRow(
				oreo.Int(int64(i)),
				oreo.Str(statuses[rng.Intn(len(statuses))]),
				oreo.Float(rng.Float64()*500),
			)
		}
		return b.Build(), "order_ts", nil
	case "events":
		schema := oreo.NewSchema(
			oreo.Column{Name: "ts", Type: oreo.Int64},
			oreo.Column{Name: "user", Type: oreo.String},
			oreo.Column{Name: "latency", Type: oreo.Float64},
		)
		users := []string{"alice", "bob", "carol", "dave", "erin"}
		b := oreo.NewDatasetBuilder(schema, rows)
		for i := 0; i < rows; i++ {
			b.AppendRow(
				oreo.Int(int64(i)),
				oreo.Str(users[rng.Intn(len(users))]),
				oreo.Float(rng.ExpFloat64()*80),
			)
		}
		return b.Build(), "ts", nil
	default:
		return nil, "", fmt.Errorf("unknown fixture table %q (have: orders, events)", name)
	}
}
