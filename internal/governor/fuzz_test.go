package governor

import (
	"reflect"
	"testing"
)

// FuzzParseSpec drives the command-line governor form. No input may
// panic; a spec ParseSpec accepts must render (String) to text that
// parses back to an equal spec, and must construct.
func FuzzParseSpec(f *testing.F) {
	for _, name := range Names {
		f.Add(name)
	}
	// ParseSpec's doc-comment examples.
	for _, text := range []string{"interval", "pid:kp=0.5,ki=0.1", "buffer:hi=3"} {
		f.Add(text)
	}
	f.Fuzz(func(t *testing.T, text string) {
		s, err := ParseSpec(text)
		if err != nil {
			return
		}
		back, err := ParseSpec(s.String())
		if err != nil {
			t.Fatalf("ParseSpec(%q) = %q, which does not parse back: %v", text, s.String(), err)
		}
		if !reflect.DeepEqual(back, s) {
			t.Fatalf("ParseSpec(%q) = %#v, but its rendering %q parses to %#v", text, s, s.String(), back)
		}
		if _, err := s.New(); err != nil {
			t.Fatalf("ParseSpec(%q) accepted a spec that does not construct: %v", text, err)
		}
	})
}
