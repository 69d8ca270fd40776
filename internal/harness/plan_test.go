package harness

import (
	"bytes"
	"context"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/dsm"
	"repro/internal/telemetry"
)

// TestPlanMergesEqualSimulations: an "all" query asks for 39 runs per
// application (33 records and six anchors) but only 23 distinct
// simulations. Figure 6's fast runs, Table 4, Figure 8's base systems
// and the topology sweep's crossbar reuse Figure 5's; Figure 6's slow
// runs and Figure 7's 4x-latency runs do not.
func TestPlanMergesEqualSimulations(t *testing.T) {
	for _, c := range []struct {
		apps       []string
		runs, sims int
	}{
		{nil, 273, 161},
		{[]string{"radix"}, 39, 23},
	} {
		p, err := planQuery(Query{Experiment: "all", Apps: c.apps, Scale: 8}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if p.runs != c.runs || len(p.tasks) != c.sims {
			t.Errorf("apps %v: %d runs, %d simulations; want %d, %d", c.apps, p.runs, len(p.tasks), c.runs, c.sims)
		}
	}

	p, err := planQuery(Query{Experiment: "all", Apps: []string{"radix"}, Scale: 8}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	taskOf := map[*Run]*task{}
	for _, t := range p.tasks {
		for _, run := range t.runs {
			taskOf[run] = t
		}
	}
	sim := func(experiment, label string) *task {
		t.Helper()
		for _, r := range p.results {
			if r.Name == experiment {
				if run := r.Runs["radix"][label]; run != nil {
					return taskOf[run]
				}
			}
		}
		t.Fatalf("no run %s/%s", experiment, label)
		return nil
	}
	fig5 := map[*task]bool{}
	for _, s := range []string{"CC-NUMA", "Rep", "Mig", "MigRep", "R-NUMA", "R-NUMA-Inf"} {
		fig5[sim("fig5", s)] = true
	}
	for _, same := range [][2]string{
		{"fig6", "MigRep-Fast"}, {"fig6", "R-NUMA-Fast"},
		{"table4", "MigRep"}, {"fig8", "R-NUMA"},
		{"toposweep", "MigRep@crossbar"}, {"toposweep", "CC-NUMA@crossbar"},
	} {
		if !fig5[sim(same[0], same[1])] {
			t.Errorf("%s/%s does not reuse a Figure 5 simulation", same[0], same[1])
		}
	}
	for _, apart := range [][2]string{
		{"fig6", "MigRep-Slow"}, {"fig6", "R-NUMA-Slow"},
		{"fig7", "CC-NUMA"}, {"fig7", "MigRep"}, {"fig7", "R-NUMA"},
		{"toposweep", "MigRep@ring"},
	} {
		if fig5[sim(apart[0], apart[1])] {
			t.Errorf("%s/%s merged with a Figure 5 simulation", apart[0], apart[1])
		}
	}
}

// TestTableSetsLiveForTheRunList: a starting task takes an idle table
// set before it makes one, and once the last task has started no set
// stays idle: those idle then are dropped, and so is each set given
// back later.
func TestTableSetsLiveForTheRunList(t *testing.T) {
	made := 0
	s := &tableSets{unstarted: 4, alloc: func() *dsm.Tables { made++; return new(dsm.Tables) }}
	a, b := s.take(), s.take()
	if made != 2 || a == b {
		t.Fatalf("two running tasks got %d sets, equal %v", made, a == b)
	}
	s.give(a)
	if c := s.take(); c != a || made != 2 {
		t.Fatalf("a starting task made a set while one was idle")
	}
	s.give(b)
	s.take() // the last task: b is idle while it starts, then dropped
	if made != 2 || len(s.idle) != 0 {
		t.Fatalf("after the last start: %d sets made, %d idle; want 2, 0", made, len(s.idle))
	}
	s.give(a)
	if len(s.idle) != 0 {
		t.Errorf("a set given back after the last start stays idle")
	}
}

// TestSharedRunsStayReadOnly: records of a merged simulation share its
// statistics, anchor and telemetry collector. Rendering every output —
// text, CSV, JSON and telemetry artifacts — must leave them exactly as
// the simulations left them. Nothing they reach may lie in the machine
// tables the run list's simulations reused, which later simulations
// overwrite.
func TestSharedRunsStayReadOnly(t *testing.T) {
	const workers = 4
	p, err := planQuery(Query{Experiment: "all", Apps: []string{"migratory"}, Scale: 8},
		Options{Parallel: workers, Audit: true, Telemetry: &telemetry.Config{Timeline: true}})
	if err != nil {
		t.Fatal(err)
	}
	var sets []*dsm.Tables // appended under tableSets' lock
	p.newTables = func() *dsm.Tables {
		tb := new(dsm.Tables)
		sets = append(sets, tb)
		return tb
	}
	results, err := p.execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(sets) == 0 || len(sets) > workers {
		t.Fatalf("%d table sets for %d simulations on %d workers", len(sets), len(p.tasks), workers)
	}
	var tables []span
	for _, tb := range sets {
		tables = memSpans(reflect.ValueOf(tb), tables, map[span]bool{})
	}
	var shared []any
	seen := map[any]int{}
	for _, r := range results {
		for _, app := range r.AppOrder {
			for _, label := range r.Systems {
				run := r.Runs[app][label]
				for _, v := range []any{run.Stats, run.Base, run.Telemetry} {
					if seen[v]++; seen[v] == 1 {
						shared = append(shared, v)
					}
				}
			}
		}
	}
	col := results[0].Runs["migratory"]["MigRep"].Telemetry
	if seen[col] < 2 {
		t.Fatal("Figure 5's MigRep collector serves one record: the query merged nothing")
	}
	if len(col.Events()) == 0 {
		t.Fatal("Figure 5's MigRep timeline is empty: there is nothing to keep read-only")
	}
	for i, v := range shared {
		for _, s := range memSpans(reflect.ValueOf(v), nil, map[span]bool{}) {
			if j := slices.IndexFunc(tables, s.overlaps); j >= 0 {
				t.Fatalf("shared %T #%d reaches [%#x, %#x), inside a table set's [%#x, %#x)",
					v, i, s.lo, s.hi, tables[j].lo, tables[j].hi)
			}
		}
	}

	before := make([]any, len(shared))
	for i, v := range shared {
		before[i] = deepCopy(reflect.ValueOf(v)).Interface()
	}

	var text, csv bytes.Buffer
	var records []Record
	for _, r := range results {
		r.WriteText(&text)
		if err := r.WriteCSVRows(&csv); err != nil {
			t.Fatal(err)
		}
		records = append(records, r.Records()...)
		if err := r.WriteTelemetry(t.TempDir(), 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := RecordsJSON(records); err != nil {
		t.Fatal(err)
	}
	for i, v := range shared {
		if !reflect.DeepEqual(before[i], v) {
			t.Errorf("rendering changed shared %T #%d", v, i)
		}
	}
}

// deepCopy returns a copy of v that shares no memory with it,
// unexported fields included.
func deepCopy(v reflect.Value) reflect.Value {
	c := reflect.New(v.Type()).Elem()
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() {
			c.Set(reflect.New(v.Type().Elem()))
			c.Elem().Set(deepCopy(v.Elem()))
		}
	case reflect.Struct:
		if !v.CanAddr() {
			a := reflect.New(v.Type()).Elem()
			a.Set(v)
			v = a
		}
		for i := range v.NumField() {
			exposed(c.Field(i)).Set(deepCopy(exposed(v.Field(i))))
		}
	case reflect.Slice:
		if !v.IsNil() {
			c.Set(reflect.MakeSlice(v.Type(), v.Len(), v.Len()))
			for i := range v.Len() {
				c.Index(i).Set(deepCopy(v.Index(i)))
			}
		}
	case reflect.Array:
		for i := range v.Len() {
			c.Index(i).Set(deepCopy(v.Index(i)))
		}
	case reflect.Map:
		if !v.IsNil() {
			c.Set(reflect.MakeMapWithSize(v.Type(), v.Len()))
			for it := v.MapRange(); it.Next(); {
				c.SetMapIndex(deepCopy(it.Key()), deepCopy(it.Value()))
			}
		}
	case reflect.Interface, reflect.Func, reflect.Chan, reflect.UnsafePointer:
		panic("deepCopy: unsupported kind " + v.Kind().String())
	default:
		c.Set(v)
	}
	return c
}

// span is the memory range [lo, hi).
type span struct{ lo, hi uintptr }

func (s span) overlaps(o span) bool { return s.lo < o.hi && o.lo < s.hi }

// memSpans appends to out the memory v reaches through pointers and
// slices, unexported fields included; seen holds the spans already
// walked.
func memSpans(v reflect.Value, out []span, seen map[span]bool) []span {
	switch v.Kind() {
	case reflect.Pointer, reflect.Slice:
		if v.IsNil() {
			return out
		}
		n := 1
		if v.Kind() == reflect.Slice {
			n = v.Cap()
		}
		s := span{v.Pointer(), v.Pointer() + uintptr(n)*v.Type().Elem().Size()}
		if s.lo == s.hi || seen[s] {
			return out
		}
		seen[s] = true
		out = append(out, s)
		if v.Kind() == reflect.Pointer {
			return memSpans(v.Elem(), out, seen)
		}
		if pointerFree(v.Type().Elem()) {
			return out
		}
		for i := range v.Len() {
			out = memSpans(v.Index(i), out, seen)
		}
	case reflect.Struct:
		if !v.CanAddr() {
			a := reflect.New(v.Type()).Elem()
			a.Set(v)
			v = a
		}
		for i := range v.NumField() {
			out = memSpans(exposed(v.Field(i)), out, seen)
		}
	case reflect.Array:
		for i := range v.Len() {
			out = memSpans(v.Index(i), out, seen)
		}
	case reflect.Map:
		for it := v.MapRange(); it.Next(); {
			out = memSpans(it.Key(), out, seen)
			out = memSpans(it.Value(), out, seen)
		}
	case reflect.Interface, reflect.Func, reflect.Chan, reflect.UnsafePointer:
		panic("memSpans: unsupported kind " + v.Kind().String())
	}
	return out
}

// pointerFree reports whether a value of type t reaches no other
// memory.
func pointerFree(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Pointer, reflect.Slice, reflect.Map, reflect.Interface, reflect.Func, reflect.Chan,
		reflect.UnsafePointer, reflect.String:
		return false
	case reflect.Array:
		return pointerFree(t.Elem())
	case reflect.Struct:
		for i := range t.NumField() {
			if !pointerFree(t.Field(i).Type) {
				return false
			}
		}
	}
	return true
}

// exposed returns an addressable v with the read-only flag of an
// unexported field lifted, so that deepCopy can read and set it.
func exposed(v reflect.Value) reflect.Value {
	return reflect.NewAt(v.Type(), unsafe.Pointer(v.UnsafeAddr())).Elem()
}
