package store

import (
	"bytes"
	"testing"
)

// FuzzLoadResultsDB feeds the persisted-schema parser arbitrary bytes. It
// must never panic, and whatever it loads must be a fixed point of the
// schema: marshalling, parsing that and marshalling again gives the same
// bytes.
func FuzzLoadResultsDB(f *testing.F) {
	f.Add([]byte(`{"cameras": {"cam": {"0": ["car"], "12": ["bus", "car"]}}}`))
	f.Add([]byte(`{"cameras": {"a": {"-1": null, "3": []}, "b": {}}}`))
	f.Add([]byte(`{"cameras": {"cam": {"007": ["car"]}}}`))
	f.Add([]byte(`{"cameras": {"cam": {"7": ["car", "car", ""]}}, "extra": 1}`))
	f.Add([]byte(`{"cameras": null}`))
	f.Add([]byte(`[1, 2]`))
	f.Fuzz(func(t *testing.T, data []byte) {
		db, err := parseResultsDB(data)
		if err != nil {
			return
		}
		first, err := db.MarshalIndent()
		if err != nil {
			t.Fatalf("marshal of a loaded database: %v", err)
		}
		again, err := parseResultsDB(first)
		if err != nil {
			t.Fatalf("reparse of\n%s\n: %v", first, err)
		}
		second, err := again.MarshalIndent()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("round trip changed the bytes:\n%s\nthen\n%s", first, second)
		}
	})
}
