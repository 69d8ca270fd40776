// Package engine is a hotalloc fixture: functions annotated
// //repro:hotpath must not contain allocating constructs.
package engine

import "fmt"

type event struct {
	id   int
	name string
}

// Sink is an interface boxing target.
type Sink interface{ accept() }

func (e *event) accept() {}

// dispatchHot is annotated and packed with violations.
//
//repro:hotpath
func dispatchHot(e *event, names map[int]string) string {
	fmt.Println(e.id)               // want `hot path dispatchHot calls fmt\.Println`
	s := e.name + "-hot"            // want `hot path dispatchHot concatenates strings`
	s += "!"                        // want `hot path dispatchHot appends to a string`
	f := func() int { return e.id } // want `hot path dispatchHot defines a closure`
	_ = f
	m := map[int]int{e.id: 1} // want `hot path dispatchHot builds a map literal`
	_ = m
	m2 := make(map[string]int) // want `hot path dispatchHot makes a map`
	_ = m2
	return s
}

// boxOnHotPath converts a concrete value to an interface explicitly.
//
//repro:hotpath
func boxOnHotPath(e *event) Sink {
	return Sink(e) // want `hot path boxOnHotPath converts e to interface`
}

// logf is a variadic logger, the shape of stats.ViolationLog.Addf.
func logf(format string, args ...any) {}

// logOnHotPath passes concrete values to logf: each one is boxed into
// an interface, which allocates.
//
//repro:hotpath
func logOnHotPath(e *event, prior any, rest []any) {
	logf("event %d named %s", e.id, e.name) // want `hot path logOnHotPath passes e\.id to variadic \.\.\.any`
	logf("prior %v", prior)                 // an interface argument boxes nothing
	logf("rest", rest...)                   // a spread slice boxes nothing
	logf("none")
}

// dispatchClean is annotated but allocation-free: index math, slice
// reads, struct field writes.
//
//repro:hotpath
func dispatchClean(e *event, table []int64) int64 {
	if e.id < 0 || e.id >= len(table) {
		panic(fmt.Sprintf("event %d out of range", e.id))
	}
	table[e.id]++
	return table[e.id]
}

// coldHelper is unannotated: the same constructs draw no findings
// because the check applies only to annotated functions.
func coldHelper(e *event) string {
	return fmt.Sprintf("event %d %s", e.id, e.name+"!")
}
