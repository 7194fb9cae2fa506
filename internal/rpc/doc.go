// Package rpc implements the RPC mechanism through which applications and
// the cache interact (§3, §5): SQL execution, fast-path inserts, automaton
// registration, and the reverse channel carrying send() events from
// automata back to their registering application.
//
// The wire protocol fragments and reassembles every message at 1024-byte
// boundaries, as the paper's RPC system does (§6.3 notes the linear
// throughput drop past 1 KiB that Fig. 13 shows). Every fragment keeps its
// own header on the wire, but a message is written with one system call:
// the writer lays all of its fragments into one buffer, and the reader
// pulls fragments through a buffered reader into one reused reassembly
// buffer. Fragments of two messages never interleave, so a fragment for a
// different message while one is being reassembled ends the connection.
//
// # Concurrency and ordering contract
//
// Each connection's requests are processed serially in arrival order (the
// paper's cache services RPCs in its main thread), so one client's
// inserts into a table commit in the order it sent them. Different
// connections proceed concurrently and are serialised only by the
// cache's per-topic commit domains: two connections inserting into
// different tables never contend, two inserting into the same table are
// ordered by that table's domain.
//
// A msgInsertBatch message carries rows for exactly one table and commits
// server-side as one cache.CommitBatch: one contiguous per-topic sequence
// run, one shared timestamp, one delivery per subscriber. Client-side,
// Batcher accumulates rows for one table and auto-flushes on size/delay
// thresholds (cutting oversized flushes into byte-bounded chunks with each
// row wire-encoded exactly once); MultiBatcher fronts a set of per-table
// Batchers and routes each row to its table's batcher, so an application
// feeding many topics still produces per-topic batch commits that land in
// distinct commit domains.
//
// # The push path
//
// send() notifications flow the other way through a per-connection push
// dispatcher: an automaton's sink encodes its payload once and enqueues it
// on a bounded Block queue, and the connection's push writer drains that
// queue on its own goroutine, coalescing a backlog into one
// msgSendEventBatch frame per write (single events still go out as
// msgSendEvent). Order is preserved end to end — sinks enqueue in delivery
// order, one writer drains FIFO, the client decodes frames in order — so
// each automaton's sends reach the application in the order they happened.
// A client that stops reading backpressures the queue, the sinks, and
// ultimately the publishing topics, rather than growing server memory.
//
// Client-side, send() notifications surface on Events(). The buffer's
// overflow behaviour is configurable (ClientConfig.EventPolicy): Block —
// the default — parks the read loop when the application stops draining,
// which also stalls RPC replies on that connection; DropOldest sheds the
// oldest notification (counted by DroppedEvents) and keeps replies
// flowing.
//
// # Watches, options and stats on the wire
//
// Watch/WatchWith create a server-side dispatcher-backed tap on a topic
// (msgWatch): the tap's events ride the same coalesced push path as
// send()s — a negative id marks a watch event, whose payload carries the
// commit timestamp, sequence number and tuple values — and the client
// invokes the watch callback on its read-loop goroutine in commit order
// (so a blocking callback stalls this connection's replies). Unwatch
// (msgUnwatch) detaches a tap; the server also detaches every watch and
// unregisters every automaton a connection created when that connection
// dies, so a crashed client leaves nothing behind. RegisterWith
// (msgRegisterWith) carries per-automaton inbox options end to end, and
// Stats (msgStats) returns the server's per-subscription depth/dropped
// counters. Error replies (msgErr) carry a numeric uerr code next to the
// message, so sentinel identity (errors.Is) survives the wire.
//
// # Quiesce, schema cache and the cluster ring
//
// Quiesce (msgQuiesce) asks the server's automaton registry to report
// exact idleness — every inbox empty and every behaviour between events —
// within a client-supplied timeout (clamped server-side); only the
// requesting connection's serve loop parks, so other connections and the
// push path keep flowing. Client.Schema resolves a topic's schema through
// a per-connection describe cache: one `describe` round trip per topic
// per connection, after which every watch event delivered on that
// connection is stamped with the cached *types.Schema (field access by
// name, no extra wire cost); the cache entry is invalidated when any
// operation on the table reports ErrNoSuchTable, so a drop/recreate
// re-resolves. The cache is guarded by its own mutex and safe for
// concurrent use.
//
// Ring is the client-side consistent-hash ring the cluster façade routes
// with: each node contributes VirtualNodes points (FNV-1a of name#replica
// finished with a splitmix64-style mixer, so short similar names spread),
// and a topic belongs to the first point clockwise of its hash. A ring is
// immutable after construction — lookups are lock-free and safe from any
// goroutine — and adding or removing one node moves only the topics that
// land on (or leave) that node's points.
package rpc
