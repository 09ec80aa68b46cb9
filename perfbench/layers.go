package main

// layerMetrics turns the traced pass w (and the untraced pass base of the
// same schedule) into the per-layer metrics. Every metric is reported for
// every workload; a layer the workload does not reach from outside reads 0.
func layerMetrics(tr *tracer, w, base window) map[string]metric {
	items := float64(w.items)
	ls := tr.stats(w.startNs, w.endNs)
	m := make(map[string]metric)
	ms := func(name string, l layer, q float64) {
		m[name] = metric{quantile(ls[l].durMs, q), "ms"}
	}
	self := func(name string, l layer) {
		m[name] = metric{float64(ls[l].selfNs) / 1e3 / items, "us/item"}
	}

	ms("faas.submit.p50_ms", lFaasSubmit, 0.50)
	ms("faas.submit.p99_ms", lFaasSubmit, 0.99)
	self("faas.submit.self_us_per_item", lFaasSubmit)
	ms("faas.result.p50_ms", lFaasResult, 0.50)
	m["faas.results_seen_per_result"] = metric{ratio(float64(w.results), float64(ls[lFaasResult].count)), "ratio"}

	ms("pstream.send.p50_ms", lSend, 0.50)
	ms("pstream.send.p99_ms", lSend, 0.99)
	m["pstream.deliver.p50_ms"] = metric{quantile(w.deliverMs, 0.50), "ms"}
	m["pstream.deliver.p99_ms"] = metric{quantile(w.deliverMs, 0.99), "ms"}
	ms("pstream.ack.p50_ms", lAck, 0.50)
	self("pstream.ack.self_us_per_item", lAck)

	for _, op := range []struct {
		name string
		l    layer
	}{{"publish", lBrokerPublish}, {"next", lBrokerNext}, {"ack", lBrokerAck}} {
		prefix := "pstream.broker." + op.name
		m[prefix+".count_per_item"] = metric{float64(ls[op.l].count) / items, "count/item"}
		self(prefix+".self_us_per_item", op.l)
		ms(prefix+".p99_ms", op.l, 0.99)
	}

	for _, name := range kvCommands {
		m["kvstore.cmd."+name+".per_item"] = metric{float64(w.tap[name]) / items, "count/item"}
	}
	ms("kvstore.op.p50_ms", lKVOp, 0.50)
	ms("kvstore.op.p99_ms", lKVOp, 0.99)
	m["kvstore.wait.per_item"] = metric{float64(ls[lKVWait].count) / items, "count/item"}
	ms("kvstore.wait.p50_ms", lKVWait, 0.50)
	m["kvstore.cas_win_ratio"] = metric{ratio(float64(w.casWon), float64(w.casTried)), "ratio"}
	m["kvserver.busy_us_per_item"] = metric{float64(base.after.busyNs-base.before.busyNs) / 1e3 / float64(base.items), "us/item"}

	ms("proxy.resolve.p50_ms", lResolve, 0.50)
	self("proxy.resolve.self_us_per_item", lResolve)
	for _, op := range []struct {
		name string
		l    layer
	}{{"put", lStorePut}, {"get", lStoreGet}} {
		prefix := "store." + op.name
		ms(prefix+".p50_ms", op.l, 0.50)
		self(prefix+".self_us_per_item", op.l)
		m[prefix+".bytes_per_item"] = metric{float64(ls[op.l].bytes) / items, "B/item"}
	}
	ms("serial.encode.p50_ms", lEncode, 0.50)
	self("serial.encode.self_us_per_item", lEncode)
	ms("serial.decode.p50_ms", lDecode, 0.50)
	self("serial.decode.self_us_per_item", lDecode)

	m["latency_p99_ms"] = metric{base.p99(), "ms"}
	m["gen.late_p99_ms"] = metric{quantile(base.lateMs, 0.99), "ms"}
	m["util_cores"] = metric{base.cpu.Seconds() / base.wall.Seconds(), "cores"}
	perItem := func(x window) float64 { return x.cpu.Seconds() / float64(x.items) }
	m["trace.overhead_pct"] = metric{100 * (perItem(w)/perItem(base) - 1), "%"}
	return m
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
