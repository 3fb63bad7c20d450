package sat

import (
	"reflect"
	"testing"
)

// TestCountersAddSubMoveEachField walks the counter record's fields.
// Each is an int64, and a record that holds 1 in one field and 0 in the
// rest moves that field of a base record, whose fields all differ, by +1
// through Add and by -1 through Sub, and leaves every other field alone:
// a counter added to the record and forgotten in add fails here.
func TestCountersAddSubMoveEachField(t *testing.T) {
	var base Counters
	fields := reflect.VisibleFields(reflect.TypeOf(base))
	for i, f := range fields {
		if f.Type.Kind() != reflect.Int64 {
			t.Fatalf("Counters.%s is a %s; every counter must be an additive int64", f.Name, f.Type)
		}
		reflect.ValueOf(&base).Elem().Field(i).SetInt(int64(1000 * (i + 1)))
	}
	for i, f := range fields {
		var one Counters
		reflect.ValueOf(&one).Elem().Field(i).SetInt(1)
		added := base
		added.Add(one)
		subbed := base.Sub(one)
		for j, g := range fields {
			was := reflect.ValueOf(base).Field(j).Int()
			up, down := was, was
			if j == i {
				up, down = was+1, was-1
			}
			if got := reflect.ValueOf(added).Field(j).Int(); got != up {
				t.Errorf("Add of one %s: %s = %d, want %d", f.Name, g.Name, got, up)
			}
			if got := reflect.ValueOf(subbed).Field(j).Int(); got != down {
				t.Errorf("Sub of one %s: %s = %d, want %d", f.Name, g.Name, got, down)
			}
		}
	}
}
