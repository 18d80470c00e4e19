package main

// metric is one figure the benchmark prints. moves names the end-to-end
// metric and workload a per-layer metric should move, printed beside it;
// BENCHMARK.json lists the same names, units and directions.
type metric struct {
	name, unit, better, moves string
}

var (
	mPayloadBps    = metric{name: "payload_Bps", unit: "B/s", better: "higher"}
	mOpIQM         = metric{name: "op_iqm_ms", unit: "ms", better: "lower"}
	mBitsPerSymbol = metric{name: "bits_per_symbol", unit: "bit/sym", better: "higher"}
	mDeliveredFrac = metric{name: "delivered_frac", unit: "frac", better: "higher"}
	mSetup         = metric{name: "setup_s", unit: "s", better: "lower"}
	mPeakRSS       = metric{name: "peak_rss_MB", unit: "MB", better: "lower"}
)

// endToEnd is what a user of the stack sees, printed by an untraced run.
var endToEnd = []metric{mPayloadBps, mOpIQM, mBitsPerSymbol, mDeliveredFrac, mSetup, mPeakRSS}

var (
	// mOpTail is what users see, but it carries no bound: spinald-b256's
	// tail moved by up to 0.3 of its median between runs on a shared host.
	mOpTail = metric{"op_tail_ms", "ms", "lower", "none: the latency tail users see, unbounded"}

	mLinkSend        = metric{"link.send_us", "us", "lower", "op_iqm_ms on mice"}
	mLinkStep        = metric{"link.step_ms", "ms", "lower", "payload_Bps on mice"}
	mLinkStepP99     = metric{"link.step_p99_ms", "ms", "lower", "op_tail_ms on mice"}
	mLinkRounds      = metric{"link.rounds_per_op", "rounds", "lower", "op_iqm_ms on mice"}
	mLinkSymbols     = metric{"link.symbols_per_op", "sym", "lower", "bits_per_symbol on mice"}
	mLinkBuilds      = metric{"link.codec_builds_per_op", "count", "lower", "payload_Bps and setup_s on mice"}
	mCRCFalseAccepts = metric{"link.crc_false_accepts", "count", "lower", "delivered_frac on every workload"}

	mTransportRounds  = metric{"transport.rounds_per_fetch", "rounds", "lower", "op_iqm_ms on bulk-fetch"}
	mTransportRoundMs = metric{"transport.ms_per_round", "ms", "lower", "payload_Bps on bulk-fetch"}
	mTransportRetries = metric{"transport.retries_per_fetch", "count", "lower", "payload_Bps on bulk-fetch"}
	mTransportLosses  = metric{"transport.losses_per_fetch", "count", "lower", "bits_per_symbol on bulk-fetch"}
	mTransportYield   = metric{"transport.segment_yield", "frac", "higher", "payload_Bps and bits_per_symbol on bulk-fetch"}
	mTransportSRTT    = metric{"transport.srtt_rounds", "rounds", "lower", "op_iqm_ms on bulk-fetch"}
	mTransportRTO     = metric{"transport.rto_rounds", "rounds", "lower", "op_iqm_ms on bulk-fetch"}
	mTransportWindow  = metric{"transport.window_peak", "segments", "higher", "op_iqm_ms on bulk-fetch"}

	mDaemonRxLoss    = metric{"daemon.rx_loss_frac", "frac", "lower", "op_tail_ms and delivered_frac on spinald-b256"}
	mDaemonDropped   = metric{"daemon.ingress_dropped", "count", "lower", "delivered_frac and op_tail_ms on spinald-b256"}
	mDaemonDups      = metric{"daemon.dup_submits", "count", "lower", "delivered_frac and op_tail_ms on spinald-b256"}
	mDaemonReplays   = metric{"daemon.replays", "count", "lower", "delivered_frac and op_tail_ms on spinald-b256"}
	mDaemonBatching  = metric{"daemon.records_per_datagram", "count", "higher", "op_iqm_ms on spinald-b256"}
	mDaemonQueueP99  = metric{"daemon.queue_len_p99", "count", "lower", "op_tail_ms on spinald-b256"}
	mDaemonShardSkew = metric{"daemon.shard_skew", "ratio", "lower", "op_tail_ms on spinald-b256"}
	mLoadgenLate     = metric{"loadgen.late_p99_ms", "ms", "lower", "validity of spinald-b256"}
	mLoadgenResubmit = metric{"loadgen.resubmits_per_op", "count", "lower", "validity of spinald-b256"}

	mAllocBytes    = metric{"alloc.bytes_per_op", "B", "lower", "payload_Bps on bulk-fetch, op_tail_ms on spinald-b256"}
	mAllocObjects  = metric{"alloc.objects_per_op", "count", "lower", "payload_Bps on bulk-fetch, op_tail_ms on spinald-b256"}
	mGCCycles      = metric{"gc.cycles_per_s", "1/s", "lower", "payload_Bps on bulk-fetch, op_tail_ms on spinald-b256"}
	mTraceOverhead = metric{"trace.overhead_frac", "frac", "lower", "none: the cost of tracing"}
)

// cpuShares are self-sample shares of the traced half's CPU profile,
// attributed by package path (see attribute). cpu.core includes cpu.hw and
// cpu.hashfn, which include the shares of their named kernel functions.
var cpuShares = []metric{
	{"cpu.core", "frac", "lower", "payload_Bps on mice and bulk-fetch, op_tail_ms on spinald-b256"},
	{"cpu.hw", "frac", "lower", "payload_Bps on mice and bulk-fetch, op_tail_ms on spinald-b256"},
	{"cpu.hashfn", "frac", "lower", "payload_Bps on mice and bulk-fetch, op_tail_ms on spinald-b256"},
	{"cpu.hw.SelectKeys", "frac", "lower", "op_tail_ms on spinald-b256"},
	{"cpu.hw.AccumulateCompact", "frac", "lower", "payload_Bps on mice and bulk-fetch"},
	{"cpu.hashfn.oaat", "frac", "lower", "payload_Bps on mice and bulk-fetch"},
	{"cpu.channel", "frac", "lower", "payload_Bps on mice"},
	{"cpu.link", "frac", "lower", "payload_Bps on mice"},
	{"cpu.transport", "frac", "lower", "payload_Bps on bulk-fetch"},
	{"cpu.daemon", "frac", "lower", "op_tail_ms on spinald-b256"},
	{"cpu.net", "frac", "lower", "op_tail_ms on spinald-b256"},
	{"cpu.runtime", "frac", "lower", "payload_Bps on bulk-fetch, op_tail_ms on spinald-b256"},
	{"cpu.bench", "frac", "lower", "none: the benchmark's own share"},
	{"cpu.samples", "count", "higher", "none: the base of the cpu shares"},
}

// perLayer is what a traced run prints.
var perLayer = append([]metric{
	mOpTail,
	mLinkSend, mLinkStep, mLinkStepP99, mLinkRounds, mLinkSymbols, mLinkBuilds, mCRCFalseAccepts,
	mTransportRounds, mTransportRoundMs, mTransportRetries, mTransportLosses, mTransportYield,
	mTransportSRTT, mTransportRTO, mTransportWindow,
	mDaemonRxLoss, mDaemonDropped, mDaemonDups, mDaemonReplays, mDaemonBatching,
	mDaemonQueueP99, mDaemonShardSkew, mLoadgenLate, mLoadgenResubmit,
	mAllocBytes, mAllocObjects, mGCCycles, mTraceOverhead,
}, cpuShares...)
