package governor

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Spec is the serializable selection of a governor: a policy name plus
// optional tuning overrides. The zero value means "no governor": the
// node runtime skips the decision loop entirely, which is the default
// and reproduces the ungoverned simulation byte for byte.
type Spec struct {
	// Name selects the policy: "static", "interval", "pid" or "buffer".
	// Empty disables online governing.
	Name string `json:"name,omitempty"`
	// Tuning overrides the policy's default knobs, keyed by knob name
	// (see Knobs).
	Tuning map[string]float64 `json:"tuning,omitempty"`
}

// Enabled reports whether the spec selects a governor.
func (s Spec) Enabled() bool { return s.Name != "" }

// Names lists the available policies in display order.
var Names = []string{"static", "interval", "pid", "buffer"}

// knobs maps each policy to its tunable knob names, for validation and
// usage messages.
var knobs = map[string][]string{
	"static":   {},
	"interval": {"alpha", "margin_s"},
	"pid":      {"kp", "ki", "kd", "target_s", "imax", "alpha", "margin_s"},
	"buffer":   {"hi", "wait_hi_s", "lo_slack_s", "margin_s"},
}

// Knobs returns the tuning knob names a policy accepts, sorted.
func Knobs(name string) []string {
	out := append([]string(nil), knobs[name]...)
	sort.Strings(out)
	return out
}

// Validate checks the policy name, every tuning key and every tuning
// value: values must be finite, and the knobs with a range must lie in
// it (interval and pid alpha in (0, 1], pid imax ≥ 0, buffer hi in
// [1, 2³¹−1]). New and ParseSpec both apply it, so a spec that passes
// always constructs.
func (s Spec) Validate() error {
	if !s.Enabled() {
		if len(s.Tuning) > 0 {
			return fmt.Errorf("governor: tuning given without a policy name")
		}
		return nil
	}
	allowed, ok := knobs[s.Name]
	if !ok {
		return fmt.Errorf("governor: unknown policy %q (have %s)", s.Name, strings.Join(Names, ", "))
	}
	var bad []string
	for k := range s.Tuning {
		found := false
		for _, a := range allowed {
			if k == a {
				found = true
				break
			}
		}
		if !found {
			bad = append(bad, k)
		}
	}
	if len(bad) > 0 {
		sort.Strings(bad)
		return fmt.Errorf("governor: policy %q has no knob %s (have %s)",
			s.Name, strings.Join(bad, ", "), strings.Join(Knobs(s.Name), ", "))
	}
	for _, k := range allowed {
		v, ok := s.Tuning[k]
		switch {
		case !ok:
		case math.IsNaN(v) || math.IsInf(v, 0):
			return fmt.Errorf("governor: %s %s %v is not finite", s.Name, k, v)
		case k == "alpha" && (v <= 0 || v > 1):
			return fmt.Errorf("governor: %s alpha %v outside (0, 1]", s.Name, v)
		case k == "imax" && v < 0:
			return fmt.Errorf("governor: pid imax %v negative", v)
		case k == "hi" && (v < 1 || v > math.MaxInt32):
			return fmt.Errorf("governor: buffer hi %v outside [1, %d]", v, math.MaxInt32)
		}
	}
	return nil
}

// knob returns the tuning value for key, or def when unset.
func (s Spec) knob(key string, def float64) float64 {
	if v, ok := s.Tuning[key]; ok {
		return v
	}
	return def
}

// New constructs the governor the spec selects, tuning applied. It
// errors when Validate does; an empty spec yields nil (no governor) with
// no error.
func (s Spec) New() (Governor, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	switch s.Name {
	case "":
		return nil, nil
	case "static":
		return NewStatic(), nil
	case "interval":
		g := NewInterval()
		g.Alpha = s.knob("alpha", g.Alpha)
		g.MarginS = s.knob("margin_s", g.MarginS)
		return g, nil
	case "pid":
		g := NewPID()
		g.Kp = s.knob("kp", g.Kp)
		g.Ki = s.knob("ki", g.Ki)
		g.Kd = s.knob("kd", g.Kd)
		g.TargetSlackS = s.knob("target_s", g.TargetSlackS)
		g.IMax = s.knob("imax", g.IMax)
		g.Alpha = s.knob("alpha", g.Alpha)
		g.MarginS = s.knob("margin_s", g.MarginS)
		return g, nil
	case "buffer":
		g := NewBuffer()
		g.Hi = int(s.knob("hi", float64(g.Hi)))
		g.WaitHiS = s.knob("wait_hi_s", g.WaitHiS)
		g.LoSlackS = s.knob("lo_slack_s", g.LoSlackS)
		g.MarginS = s.knob("margin_s", g.MarginS)
		return g, nil
	default:
		// Validate covered this; kept for defense.
		return nil, fmt.Errorf("governor: unknown policy %q", s.Name)
	}
}

// MustNew is New for specs already validated; it panics on error.
func MustNew(s Spec) Governor {
	g, err := s.New()
	if err != nil {
		panic(err)
	}
	return g
}

// ParseSpec parses the command-line form NAME[:key=value,key=value]
// and validates it; a key given twice is an error. Examples:
// "interval", "pid:kp=0.5,ki=0.1", "buffer:hi=3". Empty text and
// "none" (String's rendering of the empty spec) select no governor.
func ParseSpec(text string) (Spec, error) {
	text = strings.TrimSpace(text)
	if text == "" || text == "none" {
		return Spec{}, nil
	}
	name, tuning, _ := strings.Cut(text, ":")
	s := Spec{Name: name}
	for _, kv := range strings.Split(tuning, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		k, vtext, ok := strings.Cut(kv, "=")
		if !ok {
			return Spec{}, fmt.Errorf("governor: bad tuning %q (want key=value)", kv)
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(vtext), 64)
		if err != nil {
			return Spec{}, fmt.Errorf("governor: bad tuning value %q: %v", kv, err)
		}
		k = strings.TrimSpace(k)
		if _, dup := s.Tuning[k]; dup {
			return Spec{}, fmt.Errorf("governor: tuning key %q given twice", k)
		}
		if s.Tuning == nil {
			s.Tuning = make(map[string]float64)
		}
		s.Tuning[k] = v
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// String renders the spec in ParseSpec's format, tuning keys sorted so
// the rendering is deterministic.
func (s Spec) String() string {
	if !s.Enabled() {
		return "none"
	}
	if len(s.Tuning) == 0 {
		return s.Name
	}
	keys := make([]string, 0, len(s.Tuning))
	for k := range s.Tuning {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%g", k, s.Tuning[k])
	}
	return s.Name + ":" + strings.Join(parts, ",")
}
