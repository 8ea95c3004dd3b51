package main

import (
	"fmt"
	"testing"

	"shmt/internal/serve"
)

// FuzzTenantFlags: any tenant name SanitizeTenant admits — ':' included —
// with any max-inflight ≥ 1 sets exactly that map entry.
func FuzzTenantFlags(f *testing.F) {
	f.Add("acme", 4)
	f.Add("team:a", 3)
	f.Add(":", 1)
	f.Add("a:", 2)
	f.Fuzz(func(t *testing.T, name string, limit int) {
		if serve.SanitizeTenant(name) == "" || limit < 1 {
			return
		}
		v := fmt.Sprintf("%s:%d", name, limit)
		var tf tenantLimitFlags
		if err := tf.Set(v); err != nil {
			t.Fatalf("Set(%q): %v", v, err)
		}
		if got, ok := tf.m[name]; !ok || len(tf.m) != 1 || got != limit {
			t.Fatalf("Set(%q) = %v, want {%q: %d}", v, tf.m, name, limit)
		}
	})
}
