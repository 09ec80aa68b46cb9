package main

import (
	"bytes"
	"math"
	"testing"
	"time"

	"proxystore/internal/connector"
	"proxystore/internal/connectors/redisc"
	"proxystore/internal/kvstore"
	"proxystore/internal/pstream"
	"proxystore/internal/serial"
)

// The wrappers must leave the program's paths alone: each implements an
// optional interface exactly when the value it wraps does.
func TestWrappersKeepSurface(t *testing.T) {
	tr := newTracer()
	inner := redisc.New("127.0.0.1:1")
	var bare, wrapped connector.Connector = inner, &tracedConn{inner: inner, t: tr}
	surfaces := map[string]func(connector.Connector) bool{
		"BatchPutter":        func(c connector.Connector) bool { _, ok := c.(connector.BatchPutter); return ok },
		"BatchGetter":        func(c connector.Connector) bool { _, ok := c.(connector.BatchGetter); return ok },
		"StreamPutter":       func(c connector.Connector) bool { _, ok := c.(connector.StreamPutter); return ok },
		"StreamGetter":       func(c connector.Connector) bool { _, ok := c.(connector.StreamGetter); return ok },
		"TaggedPutter":       func(c connector.Connector) bool { _, ok := c.(connector.TaggedPutter); return ok },
		"TaggedStreamPutter": func(c connector.Connector) bool { _, ok := c.(connector.TaggedStreamPutter); return ok },
	}
	for name, has := range surfaces {
		if has(bare) != has(wrapped) {
			t.Errorf("connector %s: redis connector %v, wrapper %v", name, has(bare), has(wrapped))
		}
	}
	if wrapped.Config().Type != inner.Config().Type || wrapped.Type() != inner.Type() {
		t.Errorf("wrapper describes itself as %q, want %q", wrapped.Type(), inner.Type())
	}

	for _, s := range []serial.Serializer{serial.Raw(), serial.Default(), serial.Binary(), serial.JSON()} {
		w, err := traceSerializer(s, tr)
		if err != nil {
			t.Fatal(err)
		}
		_, encBare := s.(serial.StreamEncoder)
		_, decBare := s.(serial.StreamDecoder)
		_, encWrap := w.(serial.StreamEncoder)
		_, decWrap := w.(serial.StreamDecoder)
		if encBare != encWrap || decBare != decWrap || w.ID() != s.ID() {
			t.Errorf("serializer %s: streams (%v,%v), wrapper (%v,%v) as %s", s.ID(), encBare, decBare, encWrap, decWrap, w.ID())
		}
	}

	b := pstream.NewKV("127.0.0.1:1", pstream.WithKVWrap(tr.wrapKV))
	defer b.Close()
	if got, ok := pstream.AsKV(&tracedBroker{inner: b, t: tr}); !ok || got != b {
		t.Error("pstream.AsKV does not reach the KVBroker through the broker wrapper")
	}
	if _, ok := kvstore.AsClient(tr.wrapKV(kvstore.NewClient("127.0.0.1:1"))); !ok {
		t.Error("kvstore.AsClient does not reach the Client through the tap")
	}
}

func TestSeedFixesInputs(t *testing.T) {
	a, b, c := schedule(7, 300, time.Second), schedule(7, 300, time.Second), schedule(8, 300, time.Second)
	if len(a) == 0 || len(a) != len(b) || a[len(a)-1] != b[len(b)-1] {
		t.Fatal("one seed gave two schedules")
	}
	if len(a) == len(c) && a[len(a)-1] == c[len(c)-1] {
		t.Fatal("two seeds gave one schedule")
	}
	p, q := newPayloads(7, 4096), newPayloads(8, 4096)
	if !bytes.Equal(p.at(3), newPayloads(7, 4096).at(3)) || bytes.Equal(p.at(3), q.at(3)) || bytes.Equal(p.at(3), p.at(4)) {
		t.Fatal("payloads do not follow the seed and the item")
	}
}

// A completion that fails verification, repeats, or never arrives fails
// its item.
func TestPhaseCountsMisses(t *testing.T) {
	p := newPhase([]time.Duration{0, 0, 0, 0}, time.Now(), 2, nil, false)
	p.complete(0, 0, true)
	p.complete(0, 1, true)
	p.complete(1, 0, true)
	p.complete(1, 1, false) // did not verify
	p.complete(2, 0, true)
	p.complete(2, 0, true) // second delivery of one slot
	p.complete(3, 0, true)
	p.complete(3, 1, true)
	if got := p.failedItems(); got != 2 {
		t.Errorf("failed items = %d, want 2", got)
	}
	if p.good.Load() != 6 || p.bad.Load() != 2 {
		t.Errorf("good %d bad %d, want 6 and 2", p.good.Load(), p.bad.Load())
	}
	if p.wait(0) {
		t.Error("phase drained with a completion missing")
	}
}

// pairRun is one workload's untraced and traced pass.
type pairRun struct {
	base, w window
	tr      *tracer
}

// pairs caches the passes so each workload runs once per test binary.
var pairs = map[string]*pairRun{}

func tracedRuns(t *testing.T, wl *workload) (base, w window, tr *tracer) {
	t.Helper()
	if testing.Short() {
		t.Skip("runs the workloads")
	}
	p, ok := pairs[wl.name]
	if !ok {
		base, w, tr, err := tracedPair(wl, 3, 3*time.Second)
		if err != nil {
			t.Fatalf("%s: %v", wl.name, err)
		}
		p = &pairRun{base: base, w: w, tr: tr}
		pairs[wl.name] = p
	}
	return p.base, p.w, p.tr
}

// Tracing must not change what the program asks of the server: the traced
// pass issues the same commands per item as the untraced pass. Blocking
// waits and the retries after a lost race depend on timing, and tracing
// slows the program a little, so each command may differ by 0.5 per item
// or by a quarter, whichever is larger.
func TestTracedRunIssuesSameCommands(t *testing.T) {
	for _, wl := range workloads {
		base, w, _ := tracedRuns(t, wl)
		a, b := base.cmdsPerItem(), w.cmdsPerItem()
		for name := range merge(a, b) {
			if d := math.Abs(a[name] - b[name]); d > math.Max(0.5, 0.25*math.Max(a[name], b[name])) {
				t.Errorf("%s: %s per item untraced %.3f, traced %.3f", wl.name, name, a[name], b[name])
			}
		}
		ta, tb := total(a), total(b)
		if math.Abs(ta-tb) > 0.1*ta {
			t.Errorf("%s: kv commands per item untraced %.2f, traced %.2f", wl.name, ta, tb)
		}
	}
}

// The tap sees every command the brokers send; the server counts those
// plus the data plane's. So the kvstore.cmd.<NAME>.per_item metrics must
// add up to the server's commands per item less the data plane's.
func TestTapCountsSumToBrokerShare(t *testing.T) {
	for _, wl := range workloads {
		base, w, tr := tracedRuns(t, wl)
		m := layerMetrics(tr, w, base)
		var tapped float64
		for _, name := range kvCommands {
			tapped += m["kvstore.cmd."+name+".per_item"].Value
		}
		for name, n := range w.tap {
			if _, ok := m["kvstore.cmd."+name+".per_item"]; !ok && n != 0 {
				t.Errorf("%s: the broker sent %d %s commands, which no metric reports", wl.name, n, name)
			}
		}
		broker := float64(w.after.total()-w.before.total()-w.dataCmds) / float64(w.items)
		if math.Abs(tapped-broker) > 0.005*broker+5/float64(w.items) {
			t.Errorf("%s: tapped commands per item %.4f, server's broker share %.4f", wl.name, tapped, broker)
		}
	}
}

func merge(a, b map[string]float64) map[string]bool {
	out := make(map[string]bool)
	for k := range a {
		out[k] = true
	}
	for k := range b {
		out[k] = true
	}
	return out
}

func total(m map[string]float64) float64 {
	var n float64
	for _, v := range m {
		n += v
	}
	return n
}
