package main

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"proxystore/internal/connector"
	"proxystore/internal/connectors/redisc"
	"proxystore/internal/kvstore"
	"proxystore/internal/pstream"
	"proxystore/internal/serial"
	"proxystore/internal/store"
)

const (
	// warmItems are pushed through a fresh stack one at a time before
	// measuring, so connections, subscriptions, claim floors and log
	// counters exist before the first due item.
	warmItems = 16
	// drainTimeout bounds the wait for the last items after the schedule
	// ends; anything still missing then counts as failed.
	drainTimeout = 20 * time.Second
	// settleTimeout bounds the wait for the server's key count to return to
	// its baseline once every item completed (the slower peer's acks and
	// evictions may still be landing).
	settleTimeout = 5 * time.Second
	// keySlack is how far above its baseline the key count may settle: a
	// group's acked claim records are deleted by the next member scan, so
	// the last few can outlive the drain (and the warm-up, at the
	// baseline). A leak of anything per item shows as thousands of keys.
	keySlack = 4
	// payloadSlots is how many distinct payloads the seeded pool yields:
	// item i's payload starts 8·(i mod payloadSlots) bytes into the pool.
	payloadSlots = 8192
	// attrItem carries "<phase>.<index>" on stream events.
	attrItem = "pb.item"
)

// payloads derives every item's payload from the seed: item i's bytes are
// a window of one seeded random pool, so producers and verifiers share the
// inputs without copying them.
type payloads struct {
	pool []byte
	size int
}

func newPayloads(seed uint64, size int) *payloads {
	var key [32]byte
	binary.LittleEndian.PutUint64(key[:], seed)
	pool := make([]byte, size+8*payloadSlots)
	rand.NewChaCha8(key).Read(pool)
	return &payloads{pool: pool, size: size}
}

// at returns item i's payload. Callers must not modify it.
func (p *payloads) at(i int) []byte {
	off := 8 * (i % payloadSlots)
	return p.pool[off : off+p.size : off+p.size]
}

// schedule returns the due offsets of a Poisson arrival process at rate
// items per second over the given window.
func schedule(seed uint64, rate float64, window time.Duration) []time.Duration {
	rng := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= window {
			return out
		}
		out = append(out, d)
	}
}

func itemAttr(phase, i int) string { return strconv.Itoa(phase) + "." + strconv.Itoa(i) }

func parseItemAttr(s string) (phase, i int, ok bool) {
	a, b, found := strings.Cut(s, ".")
	if !found {
		return 0, 0, false
	}
	phase, err1 := strconv.Atoi(a)
	i, err2 := strconv.Atoi(b)
	return phase, i, err1 == nil && err2 == nil
}

// completion is one verified completion's latency from its item's due
// time.
type completion struct {
	item int
	ms   float64
}

// phase is one stretch of items pushed through a stack: a single warm-up
// item, or the measured schedule. Each item completes fanout times (once
// per independent consumer); completions land in slot i*fanout+c.
type phase struct {
	id     int
	fanout int
	pay    *payloads
	due    []time.Time
	late   []time.Duration // written by the generator goroutine only

	seen    []atomic.Int32
	ok      []atomic.Bool
	left    atomic.Int64
	drained chan struct{}
	good    atomic.Int64
	bad     atomic.Int64

	mu  sync.Mutex
	lat []completion

	// Traced phases stamp when Send returned and when each consumer's
	// Next returned, for the pstream.deliver interval.
	sendEnd []atomic.Int64
	nextEnd []atomic.Int64
}

var phaseIDs atomic.Int64

func newPhase(offsets []time.Duration, start time.Time, fanout int, pay *payloads, traced bool) *phase {
	p := &phase{
		id:      int(phaseIDs.Add(1)),
		fanout:  fanout,
		pay:     pay,
		due:     make([]time.Time, len(offsets)),
		late:    make([]time.Duration, len(offsets)),
		seen:    make([]atomic.Int32, len(offsets)*fanout),
		ok:      make([]atomic.Bool, len(offsets)*fanout),
		drained: make(chan struct{}),
		lat:     make([]completion, 0, len(offsets)*fanout),
	}
	for i, d := range offsets {
		p.due[i] = start.Add(d)
	}
	if traced {
		p.sendEnd = make([]atomic.Int64, len(offsets))
		p.nextEnd = make([]atomic.Int64, len(offsets)*fanout)
	}
	p.left.Store(int64(len(p.seen)))
	if len(p.seen) == 0 {
		close(p.drained)
	}
	return p
}

// complete records consumer c's completion of item i. A completion that
// does not verify, or a second completion of the same slot, is a miss.
func (p *phase) complete(i, c int, ok bool) {
	now := time.Now()
	if i < 0 || i >= len(p.due) || c < 0 || c >= p.fanout {
		p.bad.Add(1)
		return
	}
	if p.seen[i*p.fanout+c].Add(1) != 1 {
		p.bad.Add(1)
		return
	}
	if ok {
		p.ok[i*p.fanout+c].Store(true)
		p.good.Add(1)
		p.mu.Lock()
		p.lat = append(p.lat, completion{item: i, ms: float64(now.Sub(p.due[i])) / 1e6})
		p.mu.Unlock()
	} else {
		p.bad.Add(1)
	}
	if p.left.Add(-1) == 0 {
		close(p.drained)
	}
}

// generate is the open-loop generator: one goroutine issuing each item at
// its due time however the system keeps up. An item whose issue fails
// misses all of its completions.
func (p *phase) generate(issue func(i int) error) error {
	var first error
	for i, d := range p.due {
		if w := time.Until(d); w > 0 {
			time.Sleep(w)
		}
		p.late[i] = time.Since(d)
		if err := issue(i); err != nil {
			if first == nil {
				first = fmt.Errorf("issuing item %d: %w", i, err)
			}
			for c := 0; c < p.fanout; c++ {
				p.complete(i, c, false)
			}
		}
	}
	return first
}

// failedItems counts items with a completion missing, repeated or not
// verified.
func (p *phase) failedItems() int {
	n := 0
	for i := range p.due {
		for c := 0; c < p.fanout; c++ {
			if k := i*p.fanout + c; p.seen[k].Load() != 1 || !p.ok[k].Load() {
				n++
				break
			}
		}
	}
	return n
}

func (p *phase) wait(timeout time.Duration) bool {
	select {
	case <-p.drained:
		return true
	case <-time.After(timeout):
		return false
	}
}

// stack is one workload's system under test, built from scratch.
type stack interface {
	// setPhase routes completions to p.
	setPhase(p *phase)
	// issue hands item i of p to the system; it runs on the generator.
	issue(p *phase, i int) error
	// parts returns the parts every stack shares.
	parts() *rig
	close()
}

// rig is what every stack has: the in-process kv server, reached over
// loopback TCP by the data plane (redis connector, cache off) and by the
// brokers, plus a probe client for INFO.
type rig struct {
	srv   *kvstore.Server
	probe *kvstore.Client
	data  *redisc.Connector
	tr    *tracer

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup // goroutines the stack started

	stores  []*store.Store
	brokers []pstream.Broker
	closers []func() error

	mu  sync.Mutex
	err error // first failure seen off the generator goroutine
	cur atomic.Pointer[phase]
}

func newRig(tr *tracer) (*rig, error) {
	srv, err := kvstore.NewServer("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &rig{srv: srv, probe: kvstore.NewClient(srv.Addr()), tr: tr, ctx: ctx, cancel: cancel}, nil
}

func (r *rig) parts() *rig       { return r }
func (r *rig) setPhase(p *phase) { r.cur.Store(p) }

func (r *rig) fail(err error) {
	r.mu.Lock()
	if r.err == nil {
		r.err = err
	}
	r.mu.Unlock()
}

func (r *rig) failure() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}

// newStore returns the stack's data plane: a store over the redis
// connector with its cache off, so every resolve crosses the server.
func (r *rig) newStore(ser serial.Serializer) (*store.Store, error) {
	r.data = redisc.New(r.srv.Addr())
	var conn connector.Connector = r.data
	if r.tr != nil {
		conn = &tracedConn{inner: r.data, t: r.tr}
		var err error
		if ser, err = traceSerializer(ser, r.tr); err != nil {
			return nil, err
		}
	}
	st, err := store.New("perfbench-"+connector.NewID()[:12], conn,
		store.WithSerializer(ser), store.WithCacheBytes(0))
	if err != nil {
		return nil, err
	}
	r.stores = append(r.stores, st)
	return st, nil
}

// newBroker returns a KVBroker that truncates each topic's log once
// consumers distinct consumers acked it, so the server returns to its key
// baseline after a drain.
func (r *rig) newBroker(consumers int) pstream.Broker {
	opts := []pstream.KVOption{pstream.WithKVTruncate(consumers)}
	if r.tr != nil {
		opts = append(opts, pstream.WithKVWrap(r.tr.wrapKV))
	}
	var b pstream.Broker = pstream.NewKV(r.srv.Addr(), opts...)
	if r.tr != nil {
		b = &tracedBroker{inner: b, t: r.tr}
	}
	r.brokers = append(r.brokers, b)
	return b
}

// span opens a benchmark-side span when tracing; the returned func ends it.
func (r *rig) span(l layer, item int) (id int32, end func()) {
	if r.tr == nil {
		return -1, func() {}
	}
	id = r.tr.begin(l, int32(item))
	return id, func() { r.tr.end(id, 0) }
}

// close stops the stack's goroutines, then its parts, users before
// providers.
func (r *rig) close() {
	r.cancel()
	r.wg.Wait()
	for i := len(r.closers) - 1; i >= 0; i-- {
		r.closers[i]()
	}
	for _, b := range r.brokers {
		b.Close()
	}
	for _, st := range r.stores {
		st.Close()
	}
	r.probe.Close()
	r.srv.Close()
}

// serverStats is the slice of the server's INFO the benchmark reads.
type serverStats struct {
	keys   int64
	cmds   map[string]uint64 // per-command counts, INFO excluded
	busyNs uint64            // dispatch time of non-blocking commands
}

func (s serverStats) total() uint64 {
	var n uint64
	for _, c := range s.cmds {
		n += c
	}
	return n
}

func (r *rig) stats(ctx context.Context) (serverStats, error) {
	text, err := r.probe.Info(ctx)
	if err != nil {
		return serverStats{}, err
	}
	s := serverStats{cmds: make(map[string]uint64)}
	for _, line := range strings.Split(text, "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if name == "server.keys" {
			s.keys, _ = strconv.ParseInt(val, 10, 64)
			continue
		}
		cmd, ok := strings.CutPrefix(name, "kv.cmd.")
		if !ok {
			continue
		}
		n, _ := strconv.ParseUint(val, 10, 64)
		if c, ok := strings.CutSuffix(cmd, ".count"); ok && !strings.Contains(c, ".") && c != "INFO" {
			s.cmds[c] = n
		} else if c, ok := strings.CutSuffix(cmd, ".ns.sum"); ok && !strings.Contains(c, "WAIT") && c != "INFO" {
			s.busyNs += n
		}
	}
	return s, nil
}

// procStats samples the process counters a window is measured with.
type procStats struct {
	wall  time.Time
	cpu   time.Duration // user + system
	alloc uint64        // cumulative heap bytes allocated
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

func sampleProc() procStats {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	metrics.Read(allocSample)
	return procStats{
		wall:  time.Now(),
		cpu:   time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc: allocSample[0].Value.Uint64(),
	}
}

func peakRSSMiB() float64 {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024
}

// build constructs a workload's stack and warms it with warmItems items
// pushed one at a time; it returns the stack and the set-up time.
func build(wl *workload, pay *payloads, tr *tracer) (stack, time.Duration, error) {
	start := time.Now()
	st, err := wl.setup(tr)
	if err != nil {
		return nil, 0, err
	}
	for k := 0; k < warmItems; k++ {
		p := newPhase([]time.Duration{0}, time.Now(), wl.fanout, pay, tr != nil)
		st.setPhase(p)
		err := p.generate(func(i int) error { return st.issue(p, i) })
		if err == nil && !p.wait(drainTimeout) {
			err = errors.New("warm-up item did not complete")
		}
		if err == nil && p.bad.Load() > 0 {
			err = errors.New("warm-up item failed verification")
		}
		if err != nil {
			st.close()
			return nil, 0, fmt.Errorf("warm-up: %w", err)
		}
	}
	return st, time.Since(start), nil
}

// measureSlices is how many equal slices of the schedule a window is cut
// into. The end-to-end timings are medians over the slices, so a burst of
// load from outside the benchmark that spoils one slice does not move
// them.
const measureSlices = 5

// slice is one stretch of a window: the items due in it, their
// latencies, and the process CPU and allocation over its wall time.
type slice struct {
	items int
	latMs []float64 // sorted
	cpu   time.Duration
	alloc uint64
}

// window is one measured stretch of the schedule.
type window struct {
	items       int
	expected    int // completions: items × fanout
	failedItems int
	good, bad   int64
	samples     int // latency samples: verified completions
	slices      []slice
	lateMs      []float64 // sorted
	deliverMs   []float64 // sorted; traced phases only

	cpu, wall      time.Duration
	before, after  serverStats
	dataCmds       uint64           // commands the data plane's client sent
	tap            map[string]int64 // traced: broker kv commands by name
	casTried       int64            // traced: CAS commands and wins
	casWon         int64
	results        int64 // traced: result events delivered to executors
	startNs, endNs int64 // traced: window bounds on the tracer clock
	err            error
}

// measure runs the seeded schedule through st and checks the outcome:
// every completion verified, exactly once, and the server back at its
// key baseline.
func measure(st stack, wl *workload, pay *payloads, offsets []time.Duration, length time.Duration) window {
	r := st.parts()
	ctx := context.Background()
	var w window
	before, err := r.stats(ctx)
	if err != nil {
		w.err = err
		return w
	}
	tr := r.tr
	var tapBefore map[string]int64
	if tr != nil {
		tr.mu.Lock()
		tapBefore = copyCounts(tr.cmds)
		w.casTried, w.casWon, w.results = -tr.casTried, -tr.casWon, -tr.results
		tr.mu.Unlock()
		w.startNs = time.Since(tr.t0).Nanoseconds()
	}
	data0 := r.data.Client().RoundTrips()
	marks := make([]procStats, measureSlices+1)
	marks[0] = sampleProc()
	start := marks[0].wall.Add(time.Millisecond)
	p := newPhase(offsets, start, wl.fanout, pay, tr != nil)
	st.setPhase(p)
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		for k := 1; k < measureSlices; k++ {
			time.Sleep(time.Until(start.Add(time.Duration(k) * length / measureSlices)))
			marks[k] = sampleProc()
		}
	}()
	genErr := p.generate(func(i int) error { return st.issue(p, i) })
	drained := p.wait(drainTimeout)
	<-sampled
	marks[measureSlices] = sampleProc()
	p0, p1 := marks[0], marks[measureSlices]
	w.dataCmds = r.data.Client().RoundTrips() - data0
	if tr != nil {
		w.endNs = time.Since(tr.t0).Nanoseconds()
		tr.mu.Lock()
		w.tap = copyCounts(tr.cmds)
		w.casTried += tr.casTried
		w.casWon += tr.casWon
		w.results += tr.results
		tr.mu.Unlock()
		for k, v := range tapBefore {
			w.tap[k] -= v
		}
	}
	after, err := r.stats(ctx)
	for deadline := time.Now().Add(settleTimeout); err == nil && after.keys > before.keys+keySlack && time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
		var s serverStats
		if s, err = r.stats(ctx); err == nil {
			after.keys = s.keys
		}
	}
	w.before, w.after = before, after
	w.items = len(offsets)
	w.expected = len(offsets) * wl.fanout
	w.good, w.bad = p.good.Load(), p.bad.Load()
	w.failedItems = p.failedItems()
	w.cpu, w.wall = p1.cpu-p0.cpu, p1.wall.Sub(p0.wall)
	w.slices = make([]slice, measureSlices)
	for k := range w.slices {
		w.slices[k].cpu = marks[k+1].cpu - marks[k].cpu
		w.slices[k].alloc = marks[k+1].alloc - marks[k].alloc
	}
	sliceOf := func(i int) int { return min(int(offsets[i]*measureSlices/length), measureSlices-1) }
	for i := range offsets {
		w.slices[sliceOf(i)].items++
	}
	p.mu.Lock()
	w.samples = len(p.lat)
	for _, c := range p.lat {
		sl := &w.slices[sliceOf(c.item)]
		sl.latMs = append(sl.latMs, c.ms)
	}
	p.mu.Unlock()
	for k := range w.slices {
		sort.Float64s(w.slices[k].latMs)
	}
	for _, d := range p.late {
		w.lateMs = append(w.lateMs, float64(d)/1e6)
	}
	sort.Float64s(w.lateMs)
	if p.sendEnd != nil {
		for i := range p.nextEnd {
			s, n := p.sendEnd[i/wl.fanout].Load(), p.nextEnd[i].Load()
			if s != 0 && n != 0 {
				w.deliverMs = append(w.deliverMs, float64(n-s)/1e6)
			}
		}
		sort.Float64s(w.deliverMs)
	}
	switch {
	case genErr != nil:
		w.err = genErr
	case r.failure() != nil:
		w.err = r.failure()
	case !drained:
		w.err = fmt.Errorf("%d of %d completions still missing after %v", p.left.Load(), w.expected, drainTimeout)
	case err != nil:
		w.err = err
	case after.keys > before.keys+keySlack:
		w.err = fmt.Errorf("server holds %d keys after the drain, baseline %d: a leak", after.keys, before.keys)
	case w.bad > 0:
		w.err = fmt.Errorf("%d completions failed verification or repeated", w.bad)
	}
	return w
}

func copyCounts(m map[string]int64) map[string]int64 {
	out := make(map[string]int64, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// sliceMedian is the median over the window's slices of f.
func (w window) sliceMedian(f func(slice) float64) float64 {
	v := make([]float64, 0, len(w.slices))
	for _, s := range w.slices {
		if s.items > 0 {
			v = append(v, f(s))
		}
	}
	return median(v)
}

// p99 is the median over the slices of their 99th latency percentiles.
func (w window) p99() float64 {
	return w.sliceMedian(func(s slice) float64 { return quantile(s.latMs, 0.99) })
}

// cmdsPerItem is the server's per-command delta over the window, per item.
func (w window) cmdsPerItem() map[string]float64 {
	out := make(map[string]float64)
	for k, v := range w.after.cmds {
		if d := v - w.before.cmds[k]; d > 0 {
			out[k] = float64(d) / float64(w.items)
		}
	}
	return out
}

// quantile interpolates the q-quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}
