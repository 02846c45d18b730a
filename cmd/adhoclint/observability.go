package main

import "go/types"

// The observability layer — the tracing package (internal/trace) and the
// flight recorder (internal/flight) — rides alongside the modeled protocol
// without being part of it. The whole-program rules know its contract
// explicitly instead of deriving it:
//
//   - Both packages are fabric-neutral: recording a span
//     (trace.Recorder.Record) or an event (flight.Recorder.Emit) moves no
//     modeled bytes or VTime, so the fabric-reach closure (program.go)
//     stops at them.
//   - Both are hot-path-safe: span recording is off the modeled path, and
//     flight rings are preallocated at arm time with all-value-type
//     events, so the alloc rule treats their functions as reachability
//     barriers instead of flagging the bookkeeping inside them.
//   - trace.TraceContext is zero-width wire metadata: its SizeBytes
//     returns 0 by contract so enabling tracing can never change modeled
//     bytes, transfer delays or VTimes. The payload-size rule neither
//     audits TraceContext's own SizeBytes nor requires payload SizeBytes
//     methods to mention TraceContext-typed fields.
//   - trace.TraceContext is wire-immutable: once placed on a message it is
//     never written through — child contexts are derived with Child. The
//     wireiso rule treats the type as carrying an implicit
//     //adhoclint:wireimmutable directive, which both accepts it in any
//     payload position and flags field writes to shared contexts.
//   - flight.Event is reference-free (strings and integers only), so it is
//     wire-safe wherever it appears; the wireiso rule needs no special
//     case for it, and the fixture pins that events in payload positions
//     stay accepted.

// isTraceContext reports whether t is the module's trace.TraceContext,
// possibly behind a pointer.
func isTraceContext(t types.Type, modPath string) bool {
	return isNamedType(t, modPath+"/internal/trace", "TraceContext")
}

// observabilityNeutral reports whether fn belongs to one of the two
// observability packages, trace or flight, whose functions are
// fabric-neutral and hot-path-safe by the contract above.
func observabilityNeutral(fn *types.Func, modPath string) bool {
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	path := fn.Pkg().Path()
	return path == modPath+"/internal/trace" || path == modPath+"/internal/flight"
}
