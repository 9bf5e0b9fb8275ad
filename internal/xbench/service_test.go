package xbench

import (
	"reflect"
	"testing"

	"repro/internal/service"
)

// intFields calls fn on every integer field reachable from v, with its
// dotted path.
func intFields(v reflect.Value, path string, fn func(path string, f reflect.Value)) {
	switch v.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		fn(path, v)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				intFields(v.Field(i), path+"."+v.Type().Field(i).Name, fn)
			}
		}
	}
}

// TestAddCountersSumsEveryField sets every integer counter of one
// member's /statsz snapshot to 1, sums it twice, and requires 2 in
// every field: a counter the fleet sum drops would read 0 in the
// service benchmark's report.
func TestAddCountersSumsEveryField(t *testing.T) {
	var one service.Counters
	n := 0
	intFields(reflect.ValueOf(&one).Elem(), "Counters", func(_ string, f reflect.Value) {
		f.SetInt(1)
		n++
	})
	if n < 40 {
		t.Fatalf("found only %d integer counters; the walk is broken", n)
	}
	var sum service.Counters
	addCounters(&sum, one)
	addCounters(&sum, one)
	intFields(reflect.ValueOf(&sum).Elem(), "Counters", func(path string, f reflect.Value) {
		if f.Int() != 2 {
			t.Errorf("%s = %d after summing two members with 1, want 2", path, f.Int())
		}
	})
}
