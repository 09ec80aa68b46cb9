package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"proxystore/internal/connector"
	"proxystore/internal/faas"
	"proxystore/internal/pstream"
	"proxystore/internal/serial"
)

// workload is one traffic mix. All three are open loop at a rate that
// keeps the process under half a core on a 2-CPU host, so it stays well
// short of saturation even while the host steals a share of the CPUs (see
// README.md), with at most two consumers, members, workers or clients.
type workload struct {
	name   string
	rate   float64 // items offered per second
	size   int     // payload bytes
	fanout int     // completions per item
	setup  func(tr *tracer) (stack, error)
}

var workloads = []*workload{
	// 4 KiB objects into a 2-member consumer group: the metadata plane
	// (claims, scans, kv round trips) dominates.
	{
		name:   "workqueue",
		rate:   200,
		size:   4 << 10,
		fanout: 1,
		setup:  func(tr *tracer) (stack, error) { return newStreamStack(tr, true) },
	},
	// 1 MiB objects to 2 independent consumers: the data plane (store
	// put/get, RESP buffers) dominates.
	{
		name:   "fanout",
		rate:   50,
		size:   1 << 20,
		fanout: 2,
		setup:  func(tr *tracer) (stack, error) { return newStreamStack(tr, false) },
	},
	// faas submit, execute, result with 64 KiB gob arguments from 2
	// clients to one 2-worker endpoint: the task plane.
	{
		name:   "tasks",
		rate:   60,
		size:   64 << 10,
		fanout: 1,
		setup:  newTaskStack,
	},
}

func lookupWorkload(name string) *workload {
	for _, wl := range workloads {
		if wl.name == name {
			return wl
		}
	}
	return nil
}

// streamStack is a producer and two consumers on one topic: members of
// one consumer group (workqueue) or independent fan-out readers (fanout).
type streamStack struct {
	*rig
	prod *pstream.Producer[[]byte]
}

func newStreamStack(tr *tracer, group bool) (stack, error) {
	r, err := newRig(tr)
	if err != nil {
		return nil, err
	}
	s := &streamStack{rig: r}
	if err := s.start(group); err != nil {
		r.close()
		return nil, err
	}
	return s, nil
}

func (s *streamStack) start(group bool) error {
	const consumers = 2
	st, err := s.newStore(serial.Raw())
	if err != nil {
		return err
	}
	// The whole group counts as one consumer for evict-on-ack and
	// truncation; fan-out readers count one each.
	readers := consumers
	if group {
		readers = 1
	}
	b := s.newBroker(readers)
	topic := "pb." + connector.NewID()[:12]
	s.prod = pstream.NewProducer[[]byte](st, b, topic, pstream.WithEvictOnAck(readers))
	for c := 0; c < consumers; c++ {
		// Window 1: each Next claims or reads one event, so work spreads
		// over the group and every resolve is its own store get.
		opts := []pstream.ConsumerOption{pstream.WithWindow(1), pstream.WithEndCount(0)}
		if group {
			opts = append(opts, pstream.WithGroup("pool"))
		}
		cons, err := pstream.NewConsumer[[]byte](s.ctx, b, topic, fmt.Sprintf("c%d", c), opts...)
		if err != nil {
			return err
		}
		s.closers = append(s.closers, cons.Close)
		slot := c
		if group {
			slot = 0
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.consume(cons, slot)
		}()
	}
	return nil
}

func (s *streamStack) issue(p *phase, i int) error {
	_, end := s.span(lSend, i)
	err := s.prod.Send(s.ctx, p.pay.at(i), map[string]string{attrItem: itemAttr(p.id, i)})
	end()
	if err == nil && p.sendEnd != nil {
		p.sendEnd[i].Store(time.Since(s.tr.t0).Nanoseconds())
	}
	return err
}

// consume is one consumer's loop: Next, resolve, verify against the
// seeded payload, Ack, then record the completion in completion slot c.
func (s *streamStack) consume(cons *pstream.Consumer[[]byte], c int) {
	for {
		nid, endNext := s.span(lNext, -1)
		it, err := cons.Next(s.ctx)
		if err != nil {
			endNext()
			if s.ctx.Err() == nil {
				s.fail(fmt.Errorf("consumer %d: next: %w", c, err))
			}
			return
		}
		p := s.cur.Load()
		ph, i, ok := parseItemAttr(it.Event.Attr(attrItem))
		if !ok || p == nil || ph != p.id {
			endNext()
			s.fail(fmt.Errorf("consumer %d: event %q from no current phase", c, it.Event.Attr(attrItem)))
			continue
		}
		if s.tr != nil {
			s.tr.setItem(nid, int32(i))
			if i < len(p.due) {
				p.nextEnd[i*p.fanout+c].Store(time.Since(s.tr.t0).Nanoseconds())
			}
		}
		endNext()

		_, endResolve := s.span(lResolve, i)
		v, err := it.Value(s.ctx)
		endResolve()
		good := err == nil && i < len(p.due) && bytes.Equal(v, p.pay.at(i))

		_, endAck := s.span(lAck, i)
		err = it.Ack(s.ctx)
		endAck()
		if err != nil && s.ctx.Err() == nil {
			s.fail(fmt.Errorf("consumer %d: ack: %w", c, err))
		}
		p.complete(i, c, good && err == nil)
	}
}

// echoFunction returns its argument, so a result can be checked against
// the payload submitted.
const echoFunction = "perfbench.echo"

var registerEcho sync.Once

// taskStack is two StreamExecutor clients sharing one 2-worker endpoint.
// The endpoint and the clients have brokers of their own, as separate
// processes would: the endpoint's claims the task topic as one group, the
// clients' reads the shared result topic as two fan-out consumers.
type taskStack struct {
	*rig
	execs []*faas.StreamExecutor
}

func newTaskStack(tr *tracer) (stack, error) {
	registerEcho.Do(func() {
		faas.RegisterFunction(echoFunction, func(_ context.Context, args []any) (any, error) {
			if len(args) != 1 {
				return nil, errors.New("echo takes one argument")
			}
			return args[0], nil
		})
	})
	r, err := newRig(tr)
	if err != nil {
		return nil, err
	}
	s := &taskStack{rig: r}
	if err := s.start(); err != nil {
		r.close()
		return nil, err
	}
	return s, nil
}

func (s *taskStack) start() error {
	const clients, workers = 2, 2
	st, err := s.newStore(serial.Default())
	if err != nil {
		return err
	}
	name := "pb-" + connector.NewID()[:12]
	ep := faas.StartStreamEndpoint(st, s.newBroker(1), name, workers)
	s.closers = append(s.closers, ep.Close)
	clientBroker := s.newBroker(clients)
	for c := 0; c < clients; c++ {
		exec, err := faas.NewStreamExecutor(st, clientBroker, name)
		if err != nil {
			return err
		}
		s.closers = append(s.closers, exec.Close)
		s.execs = append(s.execs, exec)
	}
	return nil
}

func (s *taskStack) issue(p *phase, i int) error {
	want := p.pay.at(i)
	_, end := s.span(lFaasSubmit, i)
	fut, err := s.execs[i%len(s.execs)].Submit(s.ctx, echoFunction, want)
	end()
	if err != nil {
		return err
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		_, end := s.span(lFaasResult, i)
		v, err := fut.Result(s.ctx)
		end()
		got, _ := v.([]byte)
		p.complete(i, 0, err == nil && bytes.Equal(got, want))
	}()
	return nil
}
