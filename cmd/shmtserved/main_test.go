package main

import (
	"fmt"
	"strings"
	"testing"

	"shmt/internal/serve"
)

// FuzzTenantFlags: any tenant name SanitizeTenant admits — ':' included —
// with any weight and queue depth ≥ 1 sets exactly that map entry, and a
// name without ':' may leave the queue depth out.
func FuzzTenantFlags(f *testing.F) {
	f.Add("acme", 2, 8)
	f.Add("team:a", 3, 1)
	f.Add("team:2", 1, 4)
	f.Add(":", 1, 1)
	f.Add("a:", 5, 2)
	f.Fuzz(func(t *testing.T, name string, weight, depth int) {
		if serve.SanitizeTenant(name) == "" || weight < 1 || depth < 1 {
			return
		}
		check := func(v string, want serve.TenantConfig) {
			var tf tenantFlags
			if err := tf.Set(v); err != nil {
				t.Fatalf("Set(%q): %v", v, err)
			}
			if got, ok := tf.m[name]; !ok || len(tf.m) != 1 || got != want {
				t.Fatalf("Set(%q) = %v, want {%q: %+v}", v, tf.m, name, want)
			}
		}
		check(fmt.Sprintf("%s:%d:%d", name, weight, depth), serve.TenantConfig{Weight: weight, QueueDepth: depth})
		if !strings.Contains(name, ":") {
			check(fmt.Sprintf("%s:%d", name, weight), serve.TenantConfig{Weight: weight})
		}
	})
}
