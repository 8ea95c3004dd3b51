package serve

import (
	"strings"
	"testing"
)

// checkSanitizer holds one header sanitiser to its documented contract:
// the result is either "" or the input itself, never longer than maxLen,
// drawn only from [A-Za-z0-9._:-], and sanitising it again changes nothing.
func checkSanitizer(t *testing.T, name string, sanitize func(string) string, maxLen int, in string) {
	t.Helper()
	out := sanitize(in)
	if out != "" && out != in {
		t.Fatalf("%s(%q) = %q: neither the input nor a refusal", name, in, out)
	}
	if len(out) > maxLen {
		t.Fatalf("%s(%q) is %d bytes, cap %d", name, in, len(out), maxLen)
	}
	for i := 0; i < len(out); i++ {
		c := out[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == ':', c == '-':
		default:
			t.Fatalf("%s(%q) = %q: byte %d (%q) is outside the charset", name, in, out, i, c)
		}
	}
	if again := sanitize(out); again != out {
		t.Fatalf("%s is not idempotent: %q -> %q -> %q", name, in, out, again)
	}
}

// sanitizerSeeds cover both sides of every rule: the length caps, each
// punctuation mark allowed, and the bytes a header injection would use.
var sanitizerSeeds = []string{
	"", "default", "tenant-a", "A.b_c:d-9", "smoke-trace-1",
	"has space", "new\nline", "cr\rlf", "nul\x00", "quote\"", "semi;colon", "slash/", "ünï",
	strings.Repeat("a", 64), strings.Repeat("a", 65), // the tenant cap
	strings.Repeat("a", 128), strings.Repeat("a", 129), // the trace-ID cap
}

func FuzzSanitizeTenant(f *testing.F) {
	for _, s := range sanitizerSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) { checkSanitizer(t, "SanitizeTenant", SanitizeTenant, 64, in) })
}

func FuzzSanitizeTraceID(f *testing.F) {
	for _, s := range sanitizerSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) { checkSanitizer(t, "SanitizeTraceID", SanitizeTraceID, 128, in) })
}
