package endpoint

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"proxystore/internal/netsim"
	"proxystore/internal/relay"
	"proxystore/internal/rudp"
)

func newRelay(t *testing.T) *relay.Server {
	t.Helper()
	s, err := relay.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatalf("relay.NewServer: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func startEndpoint(t *testing.T, relayAddr string, opts Options) *Endpoint {
	t.Helper()
	ep, err := Start("127.0.0.1:0", relayAddr, opts)
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() { ep.Close() })
	return ep
}

func TestLocalSetGet(t *testing.T) {
	r := newRelay(t)
	ep := startEndpoint(t, r.Addr(), Options{UUID: "local-ep"})
	cli := NewClient(ep.Addr())
	defer cli.Close()

	ctx := context.Background()
	if err := cli.Set(ctx, "obj1", []byte("local object")); err != nil {
		t.Fatalf("Set: %v", err)
	}
	data, found, err := cli.Get(ctx, "local-ep", "obj1")
	if err != nil || !found {
		t.Fatalf("Get = %v, %v, %v", data, found, err)
	}
	if string(data) != "local object" {
		t.Fatalf("Get = %q", data)
	}
}

func TestGetMissingObject(t *testing.T) {
	r := newRelay(t)
	ep := startEndpoint(t, r.Addr(), Options{UUID: "miss-ep"})
	cli := NewClient(ep.Addr())
	defer cli.Close()
	_, found, err := cli.Get(context.Background(), "miss-ep", "ghost")
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if found {
		t.Fatal("found a missing object")
	}
}

func TestExistsEvictLifecycle(t *testing.T) {
	r := newRelay(t)
	ep := startEndpoint(t, r.Addr(), Options{UUID: "lifecycle-ep"})
	cli := NewClient(ep.Addr())
	defer cli.Close()
	ctx := context.Background()

	cli.Set(ctx, "k", []byte("v"))
	ok, err := cli.Exists(ctx, "lifecycle-ep", "k")
	if err != nil || !ok {
		t.Fatalf("Exists = %v, %v", ok, err)
	}
	if err := cli.Evict(ctx, "lifecycle-ep", "k"); err != nil {
		t.Fatalf("Evict: %v", err)
	}
	ok, _ = cli.Exists(ctx, "lifecycle-ep", "k")
	if ok {
		t.Fatal("object survived evict")
	}
	if ep.Len() != 0 {
		t.Fatalf("endpoint holds %d objects", ep.Len())
	}
}

func TestPeerForwarding(t *testing.T) {
	// The paper's Figure 3 flow: producer stores on endpoint A; consumer
	// asks its local endpoint B, which peers with A and forwards the get.
	r := newRelay(t)
	epA := startEndpoint(t, r.Addr(), Options{UUID: "ep-a"})
	epB := startEndpoint(t, r.Addr(), Options{UUID: "ep-b"})

	producer := NewClient(epA.Addr())
	defer producer.Close()
	consumer := NewClient(epB.Addr())
	defer consumer.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	payload := bytes.Repeat([]byte("xyz"), 1000)
	if err := producer.Set(ctx, "shared-obj", payload); err != nil {
		t.Fatalf("Set: %v", err)
	}
	got, found, err := consumer.Get(ctx, "ep-a", "shared-obj")
	if err != nil {
		t.Fatalf("forwarded Get: %v", err)
	}
	if !found {
		t.Fatal("forwarded Get did not find the object")
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("forwarded object corrupted")
	}
}

func TestPeerConnectionReuse(t *testing.T) {
	r := newRelay(t)
	epA := startEndpoint(t, r.Addr(), Options{UUID: "reuse-a"})
	epB := startEndpoint(t, r.Addr(), Options{UUID: "reuse-b"})
	_ = epA

	producer := NewClient(epA.Addr())
	defer producer.Close()
	consumer := NewClient(epB.Addr())
	defer consumer.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	for i := 0; i < 5; i++ {
		id := fmt.Sprintf("obj-%d", i)
		if err := producer.Set(ctx, id, []byte(id)); err != nil {
			t.Fatalf("Set: %v", err)
		}
		got, found, err := consumer.Get(ctx, "reuse-a", id)
		if err != nil || !found || string(got) != id {
			t.Fatalf("Get %s = %q, %v, %v", id, got, found, err)
		}
	}
	// Exactly one handshake (offer + answer) should have crossed the relay.
	if f := r.Forwarded(); f > 2 {
		t.Fatalf("relay forwarded %d messages; peer connection not reused", f)
	}
}

// An answer can arrive before the offering side's relay.Forward returns.
// The hook widens the gap between registering the answer waiter and
// sending the offer; had the waiter been registered after the send, the
// early answer would be dropped and the handshake would stall until the
// request's deadline.
func TestPeerEarlyAnswerIsNotLost(t *testing.T) {
	testHookOfferRegistered = func() { time.Sleep(100 * time.Millisecond) }
	t.Cleanup(func() { testHookOfferRegistered = nil })
	r := newRelay(t)
	epA := startEndpoint(t, r.Addr(), Options{UUID: "early-a"})
	epB := startEndpoint(t, r.Addr(), Options{UUID: "early-b"})
	producer := NewClient(epA.Addr())
	defer producer.Close()
	consumer := NewClient(epB.Addr())
	defer consumer.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	if err := producer.Set(ctx, "k", []byte("v")); err != nil {
		t.Fatalf("Set: %v", err)
	}
	got, found, err := consumer.Get(ctx, "early-a", "k")
	if err != nil || !found || string(got) != "v" {
		t.Fatalf("forwarded Get = %q, %v, %v", got, found, err)
	}
	epB.answersMu.Lock()
	left := len(epB.answers)
	epB.answersMu.Unlock()
	if left != 0 {
		t.Fatalf("%d answer waiters left registered after the handshake", left)
	}
}

// Concurrent first requests for one target share a single handshake:
// every request succeeds and exactly one offer/answer pair crosses the
// relay.
func TestConcurrentPeeringsToOneTarget(t *testing.T) {
	r := newRelay(t)
	epA := startEndpoint(t, r.Addr(), Options{UUID: "conc-a"})
	epB := startEndpoint(t, r.Addr(), Options{UUID: "conc-b"})
	producer := NewClient(epA.Addr())
	defer producer.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := producer.Set(ctx, "k", []byte("v")); err != nil {
		t.Fatalf("Set: %v", err)
	}

	const requests = 8
	var wg sync.WaitGroup
	errs := make(chan error, requests)
	for i := 0; i < requests; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			consumer := NewClient(epB.Addr())
			defer consumer.Close()
			got, found, err := consumer.Get(ctx, "conc-a", "k")
			if err == nil && (!found || string(got) != "v") {
				err = fmt.Errorf("Get = %q, %v", got, found)
			}
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if f := r.Forwarded(); f != 2 {
		t.Fatalf("relay forwarded %d messages, want 2 (one offer, one answer)", f)
	}
}

func TestPeerForwardingWithShapedLink(t *testing.T) {
	n := netsim.New(10)
	n.AddSite("siteA", true)
	n.AddSite("siteB", true)
	n.SetLink("siteA", "siteB", netsim.Link{Latency: 10 * time.Millisecond, Bandwidth: 100e6, UDPBandwidth: 50e6})

	r := newRelay(t)
	epA := startEndpoint(t, r.Addr(), Options{UUID: "wan-a", Site: "siteA", Net: n,
		NewCC: func() rudp.CongestionControl { return rudp.NewBBRLike(0) }})
	epB := startEndpoint(t, r.Addr(), Options{UUID: "wan-b", Site: "siteB", Net: n,
		NewCC: func() rudp.CongestionControl { return rudp.NewBBRLike(0) }})

	producer := NewClient(epB.Addr())
	defer producer.Close()
	consumer := NewClient(epA.Addr())
	defer consumer.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	payload := bytes.Repeat([]byte("w"), 10_000)
	if err := producer.Set(ctx, "wan-obj", payload); err != nil {
		t.Fatalf("Set: %v", err)
	}

	// Local get on B has no WAN in the path; the forwarded get from A must
	// pay at least one shaped round trip (scaled 10ms/10 = 1ms each way).
	start := time.Now()
	got, found, err := consumer.Get(ctx, "wan-b", "wan-obj")
	wan := time.Since(start)
	if err != nil || !found {
		t.Fatalf("forwarded Get = %v, %v", found, err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("forwarded object corrupted")
	}
	if wan < 2*time.Millisecond {
		t.Fatalf("forwarded WAN get took %v, want >= 2ms of shaped latency", wan)
	}
}

func TestConcurrentClientsSerialize(t *testing.T) {
	// With a fixed per-request cost, N concurrent clients see ~N*cost
	// average latency (Figure 8's linear scaling).
	r := newRelay(t)
	cost := 2 * time.Millisecond
	ep := startEndpoint(t, r.Addr(), Options{UUID: "serial-ep", RequestCost: cost})

	measure := func(clients int) time.Duration {
		var wg sync.WaitGroup
		start := time.Now()
		const perClient = 5
		for i := 0; i < clients; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				cli := NewClient(ep.Addr())
				defer cli.Close()
				ctx := context.Background()
				for j := 0; j < perClient; j++ {
					cli.Set(ctx, fmt.Sprintf("c%d-%d", i, j), []byte("x"))
				}
			}(i)
		}
		wg.Wait()
		return time.Since(start) / perClient
	}

	one := measure(1)
	eight := measure(8)
	if eight < 4*one {
		t.Fatalf("8 clients (%v per op) should be ~8x slower than 1 client (%v per op)", eight, one)
	}
}
