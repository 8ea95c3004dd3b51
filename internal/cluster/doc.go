// Package cluster is the multi-node serving tier: an HTTP router that
// shards VOP requests across a fleet of shmtserved backends.
//
// The pieces mirror the single-node runtime one level up:
//
//   - Ring (ring.go) is a consistent-hash ring over the registered backends,
//     keyed on (tenant, op, shape) with bounded-load rebalancing, so a hot
//     key set cannot pile onto one node and membership changes move only
//     ~K/N keys.
//   - Pool (pool.go) owns the backend set: self-registration via
//     POST /v1/register, static seeding, the health prober, and the
//     breaker-aware ring pick. Each backend has an internal/breaker.Breaker,
//     the closed/open/half-open machine the engine runs for devices, on the
//     wall clock: a backend that keeps failing is quarantined, its keys
//     rehash to ring replicas, and periodic /healthz probes re-admit it.
//   - Router (router.go) is the HTTP front-end: it proxies POST /v1/execute
//     to the picked backend with in-request failover to replicas, threads
//     X-SHMT-Trace-Id through, and exposes /metrics, /healthz and /statusz
//     with the same drain discipline as shmtserved.
//   - Scatter (scatter.go) handles VOPs too large for one node: the router
//     takes the partition geometry from the hlop machinery, cuts the request
//     text into one body per partition, posts them to several backends and
//     splices the replies' text into one — it never converts a number
//     (internal/wire's index) — and prices the traffic on the cluster
//     network's link with the cost model the in-process scheduler uses for
//     device transfers.
//
// cmd/shmtrouterd wraps the router in a daemon.
package cluster
