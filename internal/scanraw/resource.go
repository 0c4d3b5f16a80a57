package scanraw

import (
	"sync/atomic"
	"time"
)

// Resource management (paper §3.3): "SCANRAW resources are allocated
// dynamically at runtime by the database resource manager ... The
// scheduler is in the best position to monitor resource utilization since
// it manages the allocation of worker threads from the pool and inspects
// buffer utilization. These data are relayed to the database resource
// manager as requests for additional resources or are used to determine
// when to release resources."
//
// The signals are the ones the paper names:
//
//   - CPU-bound: "if the scheduler assigns all the worker threads in the
//     pool for task execution but the text chunks buffer is still full —
//     SCANRAW is CPU-bound — additional CPUs are needed in order to cope
//     with the I/O throughput." We observe this as the fraction of the
//     run's wall-clock the READ thread spent blocked on a full buffer.
//   - I/O-bound: READ is (almost) never blocked, so workers idle; the
//     pool can shrink and the cores go back to the resource manager.
//   - Consume-bound: conversion outruns the execution engine — the delivery
//     producer stalls waiting for a free consume worker and chunks pile up
//     in the binary buffer. More conversion workers cannot help (the
//     bottleneck is downstream), so the pool shrinks and the freed cores go
//     where the resource manager can use them.

// ResourceReport is the utilization summary one Run relays to the
// resource manager.
type ResourceReport struct {
	// Workers is the pool size the run executed with.
	Workers int
	// ReadBlocked is the total time READ spent blocked on a full text
	// chunks buffer.
	ReadBlocked time.Duration
	// Duration is the run wall-clock time.
	Duration time.Duration
	// ConsumeStall is the total time the delivery producer spent waiting
	// for a free consume worker (fan-out consume only).
	ConsumeStall time.Duration
	// ConsumeQueueDepth is the average number of converted chunks queued in
	// front of the consume stage, sampled at each delivery; ConsumeQueueCap
	// is the queue's capacity (the binary-buffer budget). Zero cap means no
	// samples were taken.
	ConsumeQueueDepth float64
	ConsumeQueueCap   int
}

// BlockedFraction is ReadBlocked over Duration, clamped to [0,1].
func (r ResourceReport) BlockedFraction() float64 {
	if r.Duration <= 0 {
		return 0
	}
	f := float64(r.ReadBlocked) / float64(r.Duration)
	if f > 1 {
		f = 1
	}
	return f
}

// ConsumeStallFraction is ConsumeStall over Duration, clamped to [0,1].
func (r ResourceReport) ConsumeStallFraction() float64 {
	if r.Duration <= 0 {
		return 0
	}
	f := float64(r.ConsumeStall) / float64(r.Duration)
	if f > 1 {
		f = 1
	}
	return f
}

// ConsumeBound reports whether the run's bottleneck was the consume stage:
// the delivery producer stalled for a significant share of the run, or the
// consume queue stayed mostly full. Either way, converted chunks were
// waiting on the engine — adding conversion workers cannot speed the run up.
func (r ResourceReport) ConsumeBound() bool {
	if r.ConsumeStallFraction() > consumeStallAbove {
		return true
	}
	return r.ConsumeQueueCap > 0 &&
		r.ConsumeQueueDepth > consumeDepthAbove*float64(r.ConsumeQueueCap)
}

// Thresholds for the adaptation heuristic: grow the pool when READ was
// blocked for more than growAbove of the run, shrink it when less than
// shrinkBelow. The consume-bound signals override the READ-blocked ones —
// a consume bottleneck also blocks READ (back-pressure through the full
// binary buffer), and growing the pool on that signal would be exactly
// wrong.
const (
	growAbove         = 0.25
	shrinkBelow       = 0.02
	consumeStallAbove = 0.25
	consumeDepthAbove = 0.75
)

// adaptWorkers adjusts the pool size for the next run based on the
// report. It is called under runMu, so plain reads/writes of workers are
// safe.
func (o *Operator) adaptWorkers(rep ResourceReport) {
	if !o.cfg.AdaptiveWorkers || rep.Workers == 0 {
		return
	}
	next := rep.Workers
	switch f := rep.BlockedFraction(); {
	case rep.ConsumeBound():
		// Consume-bound: the engine, not conversion, is the bottleneck.
		// Shrink so the freed cores can serve parallel consume elsewhere.
		next = rep.Workers - 1
	case f > growAbove:
		// CPU-bound: request more cores, doubling toward the cap so a
		// badly undersized pool converges in a few queries.
		next = rep.Workers * 2
	case f < shrinkBelow:
		// I/O-bound: release a core back to the resource manager.
		next = rep.Workers - 1
	}
	// The pool stays within [1, 4x the configured size].
	o.workers = max(1, min(next, 4*o.cfg.Workers))
}

// Workers returns the current worker-pool size (it changes across queries
// when AdaptiveWorkers is enabled).
func (o *Operator) Workers() int {
	o.runMu.Lock()
	defer o.runMu.Unlock()
	return o.workers
}

// blockedTimer accumulates READ-blocked time for one run.
type blockedTimer struct {
	ns atomic.Int64
}

func (b *blockedTimer) add(d time.Duration) {
	if d > 0 {
		b.ns.Add(int64(d))
	}
}

func (b *blockedTimer) total() time.Duration { return time.Duration(b.ns.Load()) }
