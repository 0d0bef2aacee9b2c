package hashtable

import "testing"

// FuzzOpsVsMap drives the table with an arbitrary op string against a map
// model (go test -fuzz=FuzzOpsVsMap ./internal/hashtable; the seeds below
// also run in regular test mode).
func FuzzOpsVsMap(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5})
	f.Add([]byte("insert remove find insert insert"))
	f.Add([]byte{255, 0, 255, 0, 128, 64, 32})
	f.Fuzz(func(t *testing.T, ops []byte) {
		tb := New(Options{InitialSize: 2})
		model := map[uint64]bool{}
		for i := 0; i+1 < len(ops); i += 2 {
			k := uint64(ops[i+1] % 64)
			switch ops[i] % 3 {
			case 0:
				ins := tb.Insert(0, ent(k, k))
				if ins == model[k] {
					t.Fatalf("op %d: insert(%d) = %v but model has %v", i, k, ins, model[k])
				}
				model[k] = true
			case 1:
				e := tb.Remove(0, k)
				if (e != nil) != model[k] {
					t.Fatalf("op %d: remove(%d) presence mismatch", i, k)
				}
				delete(model, k)
			case 2:
				if (tb.Find(0, k) != nil) != model[k] {
					t.Fatalf("op %d: find(%d) presence mismatch", i, k)
				}
			}
		}
		if tb.Len() != len(model) {
			t.Fatalf("Len %d != model %d", tb.Len(), len(model))
		}
	})
}
