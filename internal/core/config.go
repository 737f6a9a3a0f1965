package core

import (
	"encoding/json"
	"fmt"
	"io"

	"dvsim/internal/atr"
	"dvsim/internal/battery"
	"dvsim/internal/cpu"
	"dvsim/internal/governor"
	"dvsim/internal/serial"
)

// PlatformConfig is the serializable form of Params: everything a
// downstream user edits to model their own platform — a different
// profile, link, power curve, battery or frame budget — as one JSON
// document. Load it with LoadPlatform; dump the calibrated defaults with
// DefaultPlatformConfig + SavePlatform as a starting point.
type PlatformConfig struct {
	// Profile is the workload profile (block times, payload sizes).
	Profile atr.Profile `json:"profile"`
	// Link is the serial link timing.
	Link serial.LinkParams `json:"link"`
	// Power holds the per-mode current curves, keyed by mode name
	// ("idle", "communication", "computation"): I = base + slope·f·V².
	Power map[string]PowerCurve `json:"power"`
	// FrameDelayS is the frame budget D.
	FrameDelayS float64 `json:"frame_delay_s"`
	// FeasibilityTol is the partitioner's relative tolerance.
	FeasibilityTol float64 `json:"feasibility_tol"`
	// Battery is the two-well pack; a zero value means "solve from the
	// calibration anchors" (only meaningful on the default platform).
	Battery battery.TwoWellParams `json:"battery"`
	// RotationPeriod is the default rotation period in frames.
	RotationPeriod int `json:"rotation_period"`
	// AckTimeoutS is the recovery protocol's detection timeout.
	AckTimeoutS float64 `json:"ack_timeout_s"`
	// Retry is the serial retransmit policy applied when a fault
	// scenario is active (see internal/fault); the zero value disables
	// retransmission.
	Retry serial.RetryPolicy `json:"retry"`
	// Governor selects the online DVS policy applied to every pipeline
	// node (see internal/governor); the zero value keeps the paper's
	// static Table-driven assignment.
	Governor governor.Spec `json:"governor"`
}

// PowerCurve is one mode's current model.
type PowerCurve struct {
	BaseMA float64 `json:"base_ma"`
	Slope  float64 `json:"slope_ma_per_mhz_v2"`
}

// modeNames maps serialized names to modes.
var modeNames = map[string]cpu.Mode{
	"idle":          cpu.Idle,
	"communication": cpu.Comm,
	"computation":   cpu.Compute,
}

// DefaultPlatformConfig returns the calibrated Itsy platform in
// serializable form (battery included explicitly).
func DefaultPlatformConfig() PlatformConfig {
	p := DefaultParams()
	power := make(map[string]PowerCurve, len(cpu.Modes))
	for name, m := range modeNames {
		power[name] = PowerCurve{BaseMA: p.Power.Base[m], Slope: p.Power.Slope[m]}
	}
	return PlatformConfig{
		Profile:        p.Profile,
		Link:           p.Link,
		Power:          power,
		FrameDelayS:    p.FrameDelayS,
		FeasibilityTol: p.FeasibilityTol,
		Battery:        DefaultItsyBatteryParams(),
		RotationPeriod: p.RotationPeriod,
		AckTimeoutS:    p.AckTimeoutS,
		Retry:          p.Retry,
	}
}

// Params converts the config into runnable parameters, validating it.
func (pc PlatformConfig) Params() (Params, error) {
	if pc.FrameDelayS <= 0 {
		return Params{}, fmt.Errorf("core: frame_delay_s %v", pc.FrameDelayS)
	}
	if pc.FeasibilityTol < 0 || pc.FeasibilityTol > 0.5 {
		return Params{}, fmt.Errorf("core: feasibility_tol %v", pc.FeasibilityTol)
	}
	if pc.Link.GoodputKBps <= 0 || pc.Link.StartupS < 0 {
		return Params{}, fmt.Errorf("core: bad link %+v", pc.Link)
	}
	pm := &cpu.PowerModel{
		Base:  make(map[cpu.Mode]float64, len(modeNames)),
		Slope: make(map[cpu.Mode]float64, len(modeNames)),
	}
	for name, m := range modeNames {
		curve, ok := pc.Power[name]
		if !ok {
			return Params{}, fmt.Errorf("core: power curve for %q missing", name)
		}
		if curve.BaseMA < 0 || curve.Slope < 0 {
			return Params{}, fmt.Errorf("core: negative power curve for %q", name)
		}
		pm.Base[m] = curve.BaseMA
		pm.Slope[m] = curve.Slope
	}
	for name := range pc.Power {
		if _, ok := modeNames[name]; !ok {
			return Params{}, fmt.Errorf("core: unknown power mode %q", name)
		}
	}
	bat := pc.Battery
	if bat == (battery.TwoWellParams{}) {
		bat = DefaultItsyBatteryParams()
	}
	if bat.CapacityMAh <= 0 || bat.AvailMAh <= 0 || bat.AvailMAh > bat.CapacityMAh || bat.FlowMA <= 0 || bat.RecoverMA < 0 {
		return Params{}, fmt.Errorf("core: bad battery %+v", bat)
	}
	rotation := pc.RotationPeriod
	if rotation < 0 {
		return Params{}, fmt.Errorf("core: rotation_period %d", rotation)
	}
	if err := pc.Retry.Validate(); err != nil {
		return Params{}, err
	}
	// Validate covers tuning ranges too (alpha outside (0, 1], negative
	// imax, …), so they surface at load time, not mid-run.
	if err := pc.Governor.Validate(); err != nil {
		return Params{}, err
	}
	return Params{
		Profile:        pc.Profile,
		Link:           pc.Link,
		Power:          pm,
		FrameDelayS:    pc.FrameDelayS,
		FeasibilityTol: pc.FeasibilityTol,
		Battery:        func() battery.Model { return bat.New() },
		RotationPeriod: rotation,
		AckTimeoutS:    pc.AckTimeoutS,
		Retry:          pc.Retry,
		Governor:       pc.Governor,
	}, nil
}

// LoadPlatformConfig reads a JSON platform config without converting
// it, for callers that need the serializable form itself — the
// manifest layer and the simulation service key their content-
// addressed run cache on it.
func LoadPlatformConfig(r io.Reader) (PlatformConfig, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var pc PlatformConfig
	if err := dec.Decode(&pc); err != nil {
		return PlatformConfig{}, fmt.Errorf("core: parsing platform config: %w", err)
	}
	return pc, nil
}

// LoadPlatform reads a JSON platform config and converts it.
func LoadPlatform(r io.Reader) (Params, error) {
	pc, err := LoadPlatformConfig(r)
	if err != nil {
		return Params{}, err
	}
	return pc.Params()
}

// SavePlatform writes a config as indented JSON.
func SavePlatform(w io.Writer, pc PlatformConfig) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(pc)
}
