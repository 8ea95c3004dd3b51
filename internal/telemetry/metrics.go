package telemetry

// The standard SHMT metric set. Everything registers into Default at init so
// the Prometheus endpoint and run reports always expose the full schema;
// series appear with zero values until the instrumented path runs.
var (
	// Engine lifecycle.

	// Runs counts completed VOP executions per scheduling policy.
	Runs = Default.NewCounterVec("shmt_runs_total",
		"Completed VOP executions by scheduling policy.", "policy")
	// HLOPsExecuted counts HLOP executions per device.
	HLOPsExecuted = Default.NewCounterVec("shmt_hlops_executed_total",
		"HLOP executions by device.", "device")
	// HLOPsAssigned counts the policy's initial HLOP→queue assignments per
	// device (before any stealing rebalances them).
	HLOPsAssigned = Default.NewCounterVec("shmt_hlops_assigned_total",
		"Initial HLOP queue assignments by device.", "device")
	// CriticalHLOPs counts partitions the policy classified critical.
	CriticalHLOPs = Default.NewCounter("shmt_hlops_critical_total",
		"HLOPs classified critical by the active policy.")
	// HLOPSplits counts HLOPs re-partitioned after overflowing device memory.
	HLOPSplits = Default.NewCounter("shmt_hlop_splits_total",
		"HLOPs split after exceeding device memory.")
	// HLOPRetries counts failed dispatches requeued on a fallback device.
	HLOPRetries = Default.NewCounter("shmt_hlop_retries_total",
		"Failed HLOP dispatches requeued on a fallback device.")
	// PhaseSeconds observes wall-clock durations of the four VOP lifecycle
	// phases (partition, schedule, execute, aggregate).
	PhaseSeconds = Default.NewHistogramVec("shmt_vop_phase_seconds",
		"Wall-clock duration of VOP lifecycle phases.", "phase",
		ExpBuckets(1e-6, 4, 12))

	// Scheduler decisions.

	// StealAttempts counts victim-selection scans by idle devices.
	StealAttempts = Default.NewCounter("shmt_steal_attempts_total",
		"Work-steal victim scans by idle devices.")
	// Steals counts successful steals per thief device.
	Steals = Default.NewCounterVec("shmt_steals_total",
		"Successful work steals by thief device.", "device")
	// StealRejected counts steals vetoed by the policy's quality constraint
	// (CanSteal returned false for an otherwise available item).
	StealRejected = Default.NewCounter("shmt_steals_rejected_total",
		"Steal candidates vetoed by the policy's quality constraint.")
	// SampledPartitions counts partitions whose criticality QAWS sampled.
	SampledPartitions = Default.NewCounter("shmt_sampling_partitions_total",
		"Partitions sampled for criticality by QAWS.")
	// SampleTouches counts the elements those samples touched.
	SampleTouches = Default.NewCounter("shmt_sampling_touches_total",
		"Elements touched by QAWS criticality sampling.")
	// Criticality observes the sampled per-partition criticality values.
	Criticality = Default.NewHistogram("shmt_sampling_criticality",
		"Sampled partition criticality distribution.",
		ExpBuckets(1e-3, 4, 10))

	// Host execution (internal/parallel).

	// WorkerBusyNanos accumulates wall nanoseconds host workers spent running
	// pool tasks — admitted HLOPs and resident casts (utilization = rate over
	// wall time × workers).
	WorkerBusyNanos = Default.NewCounter("shmt_worker_busy_nanoseconds_total",
		"Wall nanoseconds host pool workers spent executing pool tasks.")
	// WorkerChunks counts the tasks the host pool executed.
	WorkerChunks = Default.NewCounter("shmt_worker_chunks_total",
		"Tasks (admitted HLOPs, resident casts) executed by the host worker pool.")

	// Tensor arena.

	// ArenaHits counts scratch-buffer requests served from the arena, by
	// buffer kind (float64, complex128, matrix).
	ArenaHits = Default.NewCounterVec("shmt_arena_hits_total",
		"Scratch-buffer requests served from the arena.", "kind")
	// ArenaMisses counts requests that fell through to the allocator.
	ArenaMisses = Default.NewCounterVec("shmt_arena_misses_total",
		"Scratch-buffer requests that allocated fresh memory.", "kind")
	// ArenaHitBytes accumulates bytes served from pooled buffers.
	ArenaHitBytes = Default.NewCounter("shmt_arena_hit_bytes_total",
		"Bytes served from pooled arena buffers.")
	// ArenaMissBytes accumulates bytes that had to be freshly allocated.
	ArenaMissBytes = Default.NewCounter("shmt_arena_miss_bytes_total",
		"Bytes freshly allocated on arena miss.")

	// Data path (zero-copy partitioning).

	// DatapathBytesAliased accumulates logical bytes served zero-copy through
	// strided views instead of staging copies, on both the partition (input)
	// and aggregate (output) sides.
	DatapathBytesAliased = Default.NewCounter("shmt_datapath_bytes_aliased_total",
		"Partition/aggregate bytes aliased through strided views instead of copied.")
	// DatapathBytesCopied accumulates bytes moved by materialized partition
	// gathers and by the copies that land private results in the output (the
	// cudaMemcpy2D-style path), counted as each copy is made.
	DatapathBytesCopied = Default.NewCounter("shmt_datapath_bytes_copied_total",
		"Partition/aggregate bytes moved by strided staging copies.")
	// DatapathCopiesAvoided counts individual staging copies (one gather or
	// scatter each) eliminated by view aliasing.
	DatapathCopiesAvoided = Default.NewCounter("shmt_datapath_copies_avoided_total",
		"Staging copies eliminated by view aliasing.")

	// Fault handling & graceful degradation.

	// BreakerState gauges each device's circuit-breaker state
	// (0 closed, 1 open/quarantined, 2 half-open/probing).
	BreakerState = Default.NewGaugeVec("shmt_breaker_state",
		"Per-device circuit-breaker state (0 closed, 1 open, 2 half-open).", "device")
	// BreakerOpens counts breaker open transitions (quarantines) per device.
	BreakerOpens = Default.NewCounterVec("shmt_breaker_opens_total",
		"Circuit-breaker open transitions (device quarantines).", "device")
	// BreakerProbeSuccess counts half-open probes that re-admitted a device.
	BreakerProbeSuccess = Default.NewCounter("shmt_breaker_probe_success_total",
		"Half-open probes that re-admitted a quarantined device.")
	// BreakerProbeFailure counts half-open probes that re-opened the breaker.
	BreakerProbeFailure = Default.NewCounter("shmt_breaker_probe_failure_total",
		"Half-open probes that failed and re-opened the breaker.")
	// FailedDispatches counts failed HLOP dispatches per device (the engine
	// charges the dispatch overhead for these; see DESIGN.md "Fault model").
	FailedDispatches = Default.NewCounterVec("shmt_failed_dispatches_total",
		"Failed HLOP dispatches by device.", "device")
	// FailedDispatchVirtualNanos accumulates the virtual nanoseconds charged
	// for failed dispatches (dispatch overhead plus retry backoff).
	FailedDispatchVirtualNanos = Default.NewCounter("shmt_failed_dispatch_virtual_nanoseconds_total",
		"Virtual nanoseconds charged to devices for failed dispatches (overhead + backoff).")
	// Backoffs counts exponential-backoff waits after transient errors.
	Backoffs = Default.NewCounter("shmt_backoffs_total",
		"Exponential-backoff waits charged after transient dispatch errors.")
	// BackoffVirtualNanos accumulates virtual nanoseconds spent backing off.
	BackoffVirtualNanos = Default.NewCounter("shmt_backoff_virtual_nanoseconds_total",
		"Virtual nanoseconds devices spent in exponential backoff.")
	// HLOPsRerouted counts HLOPs redistributed off a failing or quarantined
	// device, labelled by the device the work was moved away from.
	HLOPsRerouted = Default.NewCounterVec("shmt_hlops_rerouted_total",
		"HLOPs redistributed off a failing or quarantined device.", "device")

	// Chaos (fault injection; see internal/chaos).

	// ChaosInjected counts injected faults by mode (transient, dead, spike,
	// corrupt).
	ChaosInjected = Default.NewCounterVec("shmt_chaos_injected_total",
		"Faults injected by the chaos layer, by mode.", "mode")

	// Serving layer (internal/serve).

	// ServeRequests counts serving-layer requests by outcome (ok, shed,
	// timeout, canceled, draining, invalid, error).
	ServeRequests = Default.NewCounterVec("shmt_serve_requests_total",
		"Serving-layer requests by outcome.", "outcome")
	// ServeQueueDepth gauges the admission queue's current depth.
	ServeQueueDepth = Default.NewGauge("shmt_serve_queue_depth",
		"Requests waiting in the serving layer's admission queue.")
	// ServeBatchRounds counts dispatched micro-batch rounds.
	ServeBatchRounds = Default.NewCounter("shmt_serve_batches_total",
		"Micro-batch rounds dispatched to the engine.")
	// ServeBatchSize observes how many requests each round coalesced
	// (sum > count in the exposition means multi-request rounds happened).
	ServeBatchSize = Default.NewHistogram("shmt_serve_batch_size",
		"Requests coalesced per micro-batch round.",
		ExpBuckets(1, 2, 8))
	// ServeRequestSeconds observes end-to-end wall latency per request
	// (admission wait + batch execution + response).
	ServeRequestSeconds = Default.NewHistogram("shmt_serve_request_seconds",
		"End-to-end wall-clock request latency in the serving layer.",
		ExpBuckets(1e-4, 4, 12))

	// Multi-tenant QoS (per-tenant admission queues; requests without an
	// X-SHMT-Tenant header count under "default").

	// ServeTenantRequests counts serving-layer requests per tenant.
	ServeTenantRequests = Default.NewCounterVec("shmt_serve_tenant_requests_total",
		"Serving-layer requests by tenant.", "tenant")
	// ServeTenantShed counts requests refused because their tenant's
	// admission queue was at its configured depth.
	ServeTenantShed = Default.NewCounterVec("shmt_serve_tenant_shed_total",
		"Requests shed at admission because the tenant's queue was full.", "tenant")
	// ServeTenantDispatched counts requests the deficit-weighted round-robin
	// dispatcher popped per tenant — under backlog the per-tenant rates
	// track the configured weights.
	ServeTenantDispatched = Default.NewCounterVec("shmt_serve_tenant_dispatched_total",
		"Requests dispatched into micro-batch rounds, by tenant.", "tenant")
	// ServeTenantQueueDepth gauges each tenant queue's current depth.
	ServeTenantQueueDepth = Default.NewGaugeVec("shmt_serve_tenant_queue_depth",
		"Requests waiting in each tenant's admission queue.", "tenant")

	// Router tier (internal/cluster, cmd/shmtrouterd).

	// RouterRequests counts routed requests by outcome (ok, failover_ok —
	// answered after at least one backend failover —, invalid, unavailable,
	// shed, draining, canceled, timeout, error).
	RouterRequests = Default.NewCounterVec("shmt_router_requests_total",
		"Router-tier requests by outcome.", "outcome")
	// RouterBackendRequests counts dispatch attempts per backend.
	RouterBackendRequests = Default.NewCounterVec("shmt_router_backend_requests_total",
		"Router dispatch attempts by backend.", "backend")
	// RouterBackendErrors counts failed dispatch attempts per backend
	// (transport errors and 5xx refusals that trigger failover).
	RouterBackendErrors = Default.NewCounterVec("shmt_router_backend_errors_total",
		"Failed router dispatch attempts by backend.", "backend")
	// RouterFailovers counts requests re-dispatched to a replica after their
	// first-choice backend failed mid-request.
	RouterFailovers = Default.NewCounter("shmt_router_failovers_total",
		"Requests re-dispatched to a replica backend after a dispatch failure.")
	// RouterRehashes counts requests whose key landed off its primary ring
	// position because the primary was quarantined or over the bounded-load
	// ceiling.
	RouterRehashes = Default.NewCounter("shmt_router_rehash_total",
		"Requests rehashed off their primary backend (quarantine or bounded-load overflow).")
	// RouterBreakerState gauges each backend's circuit-breaker state
	// (0 closed, 1 open/quarantined, 2 half-open/probing).
	RouterBreakerState = Default.NewGaugeVec("shmt_router_breaker_state",
		"Per-backend circuit-breaker state (0 closed, 1 open, 2 half-open).", "backend")
	// RouterBreakerOpens counts breaker open transitions per backend.
	RouterBreakerOpens = Default.NewCounterVec("shmt_router_breaker_opens_total",
		"Circuit-breaker open transitions (backend quarantines).", "backend")
	// RouterReadmissions counts quarantined backends returned to service by a
	// successful health probe.
	RouterReadmissions = Default.NewCounter("shmt_router_readmissions_total",
		"Quarantined backends re-admitted by a successful health probe.")
	// RouterProbes counts backend health probes by result (ok, fail).
	RouterProbes = Default.NewCounterVec("shmt_router_probes_total",
		"Backend health probes by result.", "result")
	// RouterBackends gauges the currently registered backend count.
	RouterBackends = Default.NewGauge("shmt_router_backends",
		"Backends currently registered with the router.")
	// RouterBackendsHealthy gauges the registered backends whose breaker is
	// not open.
	RouterBackendsHealthy = Default.NewGauge("shmt_router_backends_healthy",
		"Registered backends whose circuit breaker is closed or half-open.")
	// RouterScatterRequests counts requests the router executed scatter-gather
	// across multiple backends.
	RouterScatterRequests = Default.NewCounter("shmt_router_scatter_requests_total",
		"Requests partitioned and scatter-gathered across multiple backends.")
	// RouterScatterFanout observes how many partitions each scatter-gathered
	// request fanned out into.
	RouterScatterFanout = Default.NewHistogram("shmt_router_scatter_fanout",
		"Partitions dispatched per scatter-gathered request.",
		ExpBuckets(1, 2, 6))
	// RouterScatterTransferVirtualNanos accumulates the modelled
	// network-transfer time the interconnect cost model priced for
	// scatter-gather payloads.
	RouterScatterTransferVirtualNanos = Default.NewCounter("shmt_router_scatter_transfer_virtual_nanoseconds_total",
		"Modelled cluster-network transfer virtual nanoseconds priced for scatter-gather payloads.")
	// RouterRequestSeconds observes end-to-end wall latency per routed request.
	RouterRequestSeconds = Default.NewHistogram("shmt_router_request_seconds",
		"End-to-end wall-clock request latency at the router tier.",
		ExpBuckets(1e-4, 4, 12))
	// RouterTenantRequests counts routed requests per tenant (requests
	// without an X-SHMT-Tenant header count under "default").
	RouterTenantRequests = Default.NewCounterVec("shmt_router_tenant_requests_total",
		"Router-tier requests by tenant.", "tenant")
	// RouterTenantShed counts requests the router refused because the tenant
	// was over its configured in-flight cap.
	RouterTenantShed = Default.NewCounterVec("shmt_router_tenant_shed_total",
		"Requests shed at the router because the tenant exceeded its in-flight cap.", "tenant")

	// Input prefetch (double-buffered staging pipeline).

	// PrefetchBufferBytes gauges the bytes currently pinned by the resident
	// shared-operand cache (the wall-clock side of double buffering); it is
	// back at zero whenever no round is running.
	PrefetchBufferBytes = Default.NewGauge("shmt_prefetch_buffer_bytes",
		"Bytes currently held in resident shared-operand casts.")

	// Execution-plan cache (internal/core plan memoization).

	// PlanCacheHits counts Execute calls that replayed a cached plan.
	PlanCacheHits = Default.NewCounter("shmt_plan_cache_hits_total",
		"VOP executions that replayed a memoized execution plan.")
	// PlanCacheMisses counts Execute calls that planned from scratch.
	PlanCacheMisses = Default.NewCounter("shmt_plan_cache_misses_total",
		"VOP executions that ran partitioning and assignment from scratch.")
	// PlanCacheEvictions counts plans dropped by the LRU size cap.
	PlanCacheEvictions = Default.NewCounter("shmt_plan_cache_evictions_total",
		"Cached execution plans evicted by the LRU size cap.")
	// PlanCacheInvalidations counts plans dropped because the device-health
	// epoch moved (a breaker opened or a device was re-admitted).
	PlanCacheInvalidations = Default.NewCounter("shmt_plan_cache_invalidations_total",
		"Cached execution plans invalidated by a device-health epoch change.")
)

// Phase label values for PhaseSeconds and host-lane spans.
const (
	PhasePartition = "partition"
	PhaseSchedule  = "schedule"
	PhaseExecute   = "execute"
	PhaseAggregate = "aggregate"
)
