package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"proxystore/internal/connector"
	"proxystore/internal/faas"
	"proxystore/internal/kvstore"
	"proxystore/internal/pstream"
	"proxystore/internal/serial"
)

// The traced run times every layer from outside: the benchmark wraps each
// layer's public interface (connector, serializer, broker, subscription,
// the broker's kv client through pstream.WithKVWrap) and opens a span
// around its own calls into faas, pstream and proxy. Nothing inside the
// program is instrumented for the benchmark.
//
// Interfaces below the benchmark carry no span context (the Serializer
// and the kv tap take no ctx), so a span's parent is the innermost span
// still open on the same goroutine when it starts. Calls the program
// makes on goroutines of its own (the pipe goroutine of a streamed put
// or get) therefore have no parent; their time still counts toward their
// layer's per-item totals.

// layer names one timed boundary.
type layer uint8

const (
	lFaasSubmit layer = iota
	lFaasResult
	lSend
	lNext
	lAck
	lResolve
	lBrokerPublish
	lBrokerNext
	lBrokerAck
	lKVOp
	lKVWait
	lStorePut
	lStoreGet
	lStoreEvict
	lStoreExists
	lEncode
	lDecode
	numLayers
)

var layerNames = [numLayers]string{
	"faas.submit", "faas.result",
	"pstream.send", "pstream.next", "pstream.ack", "proxy.resolve",
	"pstream.broker.publish", "pstream.broker.next", "pstream.broker.ack",
	"kvstore.op", "kvstore.wait",
	"store.put", "store.get", "store.evict", "store.exists",
	"serial.encode", "serial.decode",
}

// kvCommands are the command names the broker's kv client can issue;
// each gets a kvstore.cmd.<NAME>.per_item metric.
var kvCommands = []string{
	"GET", "MGET", "SET", "MSET", "CAS", "INCR", "INCRBY",
	"DEL", "DELRANGE", "WAITGET", "WAITPREFIX", "PING",
}

// span is one timed call. parent is the index of the enclosing span plus
// one (0: none); item is the benchmark item the call served (-1: not
// known at the boundary).
type span struct {
	gid        uintptr
	start, end int64 // ns since the tracer's t0
	bytes      int64
	parent     int32
	item       int32
	name       layer
}

// tracer keeps every span of a traced phase in memory; write dumps them
// when the run ends.
type tracer struct {
	t0 time.Time

	mu       sync.Mutex
	spans    []span
	open     map[uintptr][]int32 // goroutine -> stack of open span indexes
	taskItem map[string]int32    // faas task ID -> item, learned at publish
	cmds     map[string]int64    // kv commands the broker's client issued
	casTried int64
	casWon   int64
	results  int64 // result events delivered to executors
}

func newTracer() *tracer {
	return &tracer{
		t0:       time.Now(),
		open:     make(map[uintptr][]int32),
		taskItem: make(map[string]int32),
		cmds:     make(map[string]int64),
	}
}

// begin opens a span on the calling goroutine. An item of -1 inherits the
// parent's item.
func (t *tracer) begin(name layer, item int32) int32 {
	gid := curG()
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	var parent int32
	if st := t.open[gid]; len(st) > 0 {
		parent = st[len(st)-1] + 1
		if item < 0 {
			item = t.spans[parent-1].item
		}
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{gid: gid, start: now, end: -1, parent: parent, item: item, name: name})
	t.open[gid] = append(t.open[gid], id)
	return id
}

// end closes span id, recording the bytes it moved (store layers).
func (t *tracer) end(id int32, bytes int64) {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	sp := &t.spans[id]
	sp.end = now
	sp.bytes = bytes
	st := t.open[sp.gid]
	for i := len(st) - 1; i >= 0; i-- {
		if st[i] == id {
			st = append(st[:i], st[i+1:]...)
			break
		}
	}
	if len(st) == 0 {
		delete(t.open, sp.gid)
	} else {
		t.open[sp.gid] = st
	}
}

// setItem names the item a span served once the call has revealed it
// (a broker Next learns its item from the delivered event).
func (t *tracer) setItem(id, item int32) {
	if item < 0 {
		return
	}
	t.mu.Lock()
	t.spans[id].item = item
	t.mu.Unlock()
}

// itemOf maps a delivered event back to the benchmark item it carries:
// stream events carry the item attribute, task and result events the
// faas task ID learned when the task was published.
func (t *tracer) itemOf(ev pstream.Event) int32 {
	if _, i, ok := parseItemAttr(ev.Attr(attrItem)); ok {
		return int32(i)
	}
	if id := ev.Attr(faas.AttrTaskID); id != "" {
		t.mu.Lock()
		defer t.mu.Unlock()
		if i, ok := t.taskItem[id]; ok {
			return i
		}
	}
	return -1
}

// write dumps the spans as tab-separated lines: index, parent, item,
// layer, start and end in ns since the phase began, bytes moved.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\titem\tlayer\tstart_ns\tend_ns\tbytes")
	t.mu.Lock()
	for i, sp := range t.spans {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\t%d\n", i+1, sp.parent, sp.item, layerNames[sp.name], sp.start, sp.end, sp.bytes)
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerStats summarizes one layer's spans.
type layerStats struct {
	count  int
	durMs  []float64 // sorted
	selfNs int64
	bytes  int64
}

// stats computes every layer's span count, sorted durations, total self
// time (duration minus the union of its children's intervals) and bytes,
// over the spans that started and ended within [from, to] on the tracer's
// clock.
func (t *tracer) stats(from, to int64) [numLayers]layerStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make([][]int32, len(t.spans))
	for i, sp := range t.spans {
		if sp.parent > 0 && sp.end >= 0 {
			children[sp.parent-1] = append(children[sp.parent-1], int32(i))
		}
	}
	var out [numLayers]layerStats
	var ivs [][2]int64
	for i, sp := range t.spans {
		if sp.end < 0 || sp.start < from || sp.end > to {
			continue
		}
		ls := &out[sp.name]
		ls.count++
		ls.bytes += sp.bytes
		ls.durMs = append(ls.durMs, float64(sp.end-sp.start)/1e6)
		ivs = ivs[:0]
		for _, c := range children[i] {
			ivs = append(ivs, [2]int64{max(t.spans[c].start, sp.start), min(t.spans[c].end, sp.end)})
		}
		ls.selfNs += sp.end - sp.start - covered(ivs)
	}
	for i := range out {
		sort.Float64s(out[i].durMs)
	}
	return out
}

// covered returns the length of the union of the intervals.
func covered(ivs [][2]int64) int64 {
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
	var total, lo, hi int64
	open := false
	for _, iv := range ivs {
		if iv[1] <= iv[0] {
			continue
		}
		if open && iv[0] <= hi {
			hi = max(hi, iv[1])
			continue
		}
		if open {
			total += hi - lo
		}
		lo, hi, open = iv[0], iv[1], true
	}
	if open {
		total += hi - lo
	}
	return total
}

// --- kv client tap ---------------------------------------------------------

// wrapKV interposes the tap on one of the broker's kv clients.
func (t *tracer) wrapKV(kv kvstore.KV) kvstore.KV { return kvstore.NewTap(kv, t.tapKV) }

// tapKV opens a kvstore.op span (kvstore.wait for calls that park
// server-side) and, when the call completes, counts its commands by name
// — a pipeline counts each command it carried — and CAS outcomes.
func (t *tracer) tapKV(name string, args [][]byte, blocking bool) kvstore.TapDone {
	l := lKVOp
	if blocking {
		l = lKVWait
	}
	id := t.begin(l, -1)
	return func(reply [][]byte, err error) {
		t.end(id, 0)
		t.mu.Lock()
		defer t.mu.Unlock()
		if name != "PIPELINE" {
			t.countCmd(name, reply, err == nil)
			return
		}
		n, _ := strconv.Atoi(string(args[0]))
		pos, rpos := 1, 0
		for i := 0; i < n && pos+1 < len(args); i++ {
			cmd := string(args[pos])
			nargs, _ := strconv.Atoi(string(args[pos+1]))
			pos += 2 + nargs
			var one [][]byte
			if err == nil && rpos < len(reply) {
				next := skipValue(reply, rpos)
				one, rpos = reply[rpos:next], next
			}
			t.countCmd(cmd, one, err == nil)
		}
	}
}

// countCmd tallies one command; t.mu is held.
func (t *tracer) countCmd(name string, reply [][]byte, ok bool) {
	t.cmds[name]++
	if name == "CAS" {
		t.casTried++
		if ok && len(reply) > 0 && string(reply[0]) == "i1" {
			t.casWon++
		}
	}
}

// skipValue returns the index just past the normalized reply value that
// starts at pos (see kvstore's tap reply grammar: "n", "i…", "s…", "e…",
// "b" followed by its payload element, "a<n>" followed by n values).
func skipValue(reply [][]byte, pos int) int {
	if pos >= len(reply) || len(reply[pos]) == 0 {
		return pos + 1
	}
	switch reply[pos][0] {
	case 'b':
		return pos + 2
	case 'a':
		n, _ := strconv.Atoi(string(reply[pos][1:]))
		pos++
		for i := 0; i < n; i++ {
			pos = skipValue(reply, pos)
		}
		return pos
	default:
		return pos + 1
	}
}

// --- broker wrapper --------------------------------------------------------

// tracedBroker times the metadata plane's Broker interface.
type tracedBroker struct {
	inner pstream.Broker
	t     *tracer
}

var _ pstream.Broker = (*tracedBroker)(nil)

// Unwrap lets pstream.AsKV reach the KVBroker underneath, which the task
// plane needs for its kv-only machinery.
func (b *tracedBroker) Unwrap() pstream.Broker { return b.inner }

func (b *tracedBroker) Publish(ctx context.Context, topic string, ev pstream.Event) error {
	id := b.t.begin(lBrokerPublish, -1)
	b.t.learnTask(id, ev)
	err := b.inner.Publish(ctx, topic, ev)
	b.t.end(id, 0)
	return err
}

func (b *tracedBroker) PublishBatch(ctx context.Context, topic string, evs []pstream.Event) error {
	id := b.t.begin(lBrokerPublish, -1)
	for _, ev := range evs {
		b.t.learnTask(id, ev)
	}
	err := b.inner.PublishBatch(ctx, topic, evs)
	b.t.end(id, 0)
	return err
}

// learnTask remembers which item a task event belongs to, from the item
// of the span publishing it (inherited from the benchmark's faas.submit).
func (t *tracer) learnTask(id int32, ev pstream.Event) {
	task := ev.Attr(faas.AttrTaskID)
	if task == "" || ev.Attr(faas.AttrTaskFunction) == "" {
		return
	}
	t.mu.Lock()
	if item := t.spans[id].item; item >= 0 {
		t.taskItem[task] = item
	}
	t.mu.Unlock()
}

func (b *tracedBroker) Subscribe(ctx context.Context, topic, consumer string) (pstream.Subscription, error) {
	sub, err := b.inner.Subscribe(ctx, topic, consumer)
	if err != nil {
		return nil, err
	}
	return &tracedSub{inner: sub, t: b.t, results: strings.HasPrefix(topic, faas.ResultTopic(""))}, nil
}

func (b *tracedBroker) SubscribeGroup(ctx context.Context, topic, group, member string) (pstream.Subscription, error) {
	sub, err := b.inner.SubscribeGroup(ctx, topic, group, member)
	if err != nil {
		return nil, err
	}
	return &tracedSub{inner: sub, t: b.t}, nil
}

func (b *tracedBroker) Close() error { return b.inner.Close() }

// tracedSub times one subscription. results marks an executor's fan-out
// cursor on a shared faas result topic, whose deliveries are counted.
type tracedSub struct {
	inner   pstream.Subscription
	t       *tracer
	results bool
}

func (s *tracedSub) delivered(id int32, ev pstream.Event) {
	s.t.setItem(id, s.t.itemOf(ev))
	if s.results && !ev.End && ev.Attr(faas.AttrTaskID) != "" {
		s.t.mu.Lock()
		s.t.results++
		s.t.mu.Unlock()
	}
}

func (s *tracedSub) Next(ctx context.Context) (pstream.Event, error) {
	id := s.t.begin(lBrokerNext, -1)
	ev, err := s.inner.Next(ctx)
	if err == nil {
		s.delivered(id, ev)
	}
	s.t.end(id, 0)
	return ev, err
}

func (s *tracedSub) Poll(ctx context.Context) (pstream.Event, bool, error) {
	id := s.t.begin(lBrokerNext, -1)
	ev, ok, err := s.inner.Poll(ctx)
	if err == nil && ok {
		s.delivered(id, ev)
	}
	s.t.end(id, 0)
	return ev, ok, err
}

func (s *tracedSub) Ack(ctx context.Context, ev pstream.Event) (int, error) {
	id := s.t.begin(lBrokerAck, s.t.itemOf(ev))
	n, err := s.inner.Ack(ctx, ev)
	s.t.end(id, 0)
	return n, err
}

func (s *tracedSub) Close() error { return s.inner.Close() }

// --- connector wrapper -----------------------------------------------------

// tracedConn times the data plane's connector. It wraps a full
// connector.Streamer (the redis connector is one) and implements exactly
// that surface, so the store takes the same put and get paths as it does
// over the bare connector: no tagged-put surface is added, none of the
// streaming or batch surfaces is lost.
type tracedConn struct {
	inner connector.Streamer
	t     *tracer
}

var _ connector.Streamer = (*tracedConn)(nil)

func (c *tracedConn) Type() string             { return c.inner.Type() }
func (c *tracedConn) Config() connector.Config { return c.inner.Config() }
func (c *tracedConn) Close() error             { return c.inner.Close() }

func (c *tracedConn) Put(ctx context.Context, data []byte) (connector.Key, error) {
	id := c.t.begin(lStorePut, -1)
	key, err := c.inner.Put(ctx, data)
	c.t.end(id, int64(len(data)))
	return key, err
}

func (c *tracedConn) PutFrom(ctx context.Context, r io.Reader) (connector.Key, error) {
	id := c.t.begin(lStorePut, -1)
	key, err := c.inner.PutFrom(ctx, r)
	c.t.end(id, key.Size)
	return key, err
}

func (c *tracedConn) PutBatch(ctx context.Context, data [][]byte) ([]connector.Key, error) {
	id := c.t.begin(lStorePut, -1)
	keys, err := c.inner.PutBatch(ctx, data)
	var n int64
	for _, d := range data {
		n += int64(len(d))
	}
	c.t.end(id, n)
	return keys, err
}

func (c *tracedConn) Get(ctx context.Context, key connector.Key) ([]byte, error) {
	id := c.t.begin(lStoreGet, -1)
	data, err := c.inner.Get(ctx, key)
	c.t.end(id, int64(len(data)))
	return data, err
}

func (c *tracedConn) GetTo(ctx context.Context, key connector.Key, w io.Writer) error {
	id := c.t.begin(lStoreGet, -1)
	cw := &countingWriter{w: w}
	err := c.inner.GetTo(ctx, key, cw)
	c.t.end(id, cw.n)
	return err
}

func (c *tracedConn) GetBatch(ctx context.Context, keys []connector.Key) ([][]byte, error) {
	id := c.t.begin(lStoreGet, -1)
	out, err := c.inner.GetBatch(ctx, keys)
	var n int64
	for _, d := range out {
		n += int64(len(d))
	}
	c.t.end(id, n)
	return out, err
}

func (c *tracedConn) Exists(ctx context.Context, key connector.Key) (bool, error) {
	id := c.t.begin(lStoreExists, -1)
	ok, err := c.inner.Exists(ctx, key)
	c.t.end(id, 0)
	return ok, err
}

func (c *tracedConn) Evict(ctx context.Context, key connector.Key) error {
	id := c.t.begin(lStoreEvict, -1)
	err := c.inner.Evict(ctx, key)
	c.t.end(id, 0)
	return err
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// --- serializer wrapper ----------------------------------------------------

// tracedSer times a serializer that has no streaming surface (raw).
type tracedSer struct {
	inner serial.Serializer
	t     *tracer
}

func (s *tracedSer) ID() string { return s.inner.ID() }

func (s *tracedSer) Encode(v any) ([]byte, error) {
	id := s.t.begin(lEncode, -1)
	data, err := s.inner.Encode(v)
	s.t.end(id, int64(len(data)))
	return data, err
}

func (s *tracedSer) Decode(data []byte) (any, error) {
	id := s.t.begin(lDecode, -1)
	v, err := s.inner.Decode(data)
	s.t.end(id, int64(len(data)))
	return v, err
}

// tracedStreamSer times a serializer that also encodes into writers and
// decodes from readers (gob), keeping both streaming surfaces so the store
// still pipes codec and connector together.
type tracedStreamSer struct {
	tracedSer
	enc serial.StreamEncoder
	dec serial.StreamDecoder
}

func (s *tracedStreamSer) EncodeTo(w io.Writer, v any) error {
	id := s.t.begin(lEncode, -1)
	err := s.enc.EncodeTo(w, v)
	s.t.end(id, 0)
	return err
}

func (s *tracedStreamSer) DecodeFrom(r io.Reader) (any, error) {
	id := s.t.begin(lDecode, -1)
	v, err := s.dec.DecodeFrom(r)
	s.t.end(id, 0)
	return v, err
}

// traceSerializer wraps s with the wrapper that has exactly s's surface.
func traceSerializer(s serial.Serializer, t *tracer) (serial.Serializer, error) {
	enc, encOK := s.(serial.StreamEncoder)
	dec, decOK := s.(serial.StreamDecoder)
	switch {
	case encOK && decOK:
		return &tracedStreamSer{tracedSer: tracedSer{inner: s, t: t}, enc: enc, dec: dec}, nil
	case !encOK && !decOK:
		return &tracedSer{inner: s, t: t}, nil
	default:
		return nil, fmt.Errorf("serializer %q streams in one direction only; no wrapper keeps that surface", s.ID())
	}
}
