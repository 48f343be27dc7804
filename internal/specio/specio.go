// Package specio parses and validates the JSON stack descriptions
// consumed by cmd/thermsim, turning them into solvable stack.Spec
// values. Keeping the translation here makes it testable and reusable
// by other tooling.
package specio

import (
	"encoding/json"
	"fmt"

	"thermalscaffold/internal/heatsink"
	"thermalscaffold/internal/stack"
	"thermalscaffold/internal/units"
)

// StackJSON is the on-disk schema.
type StackJSON struct {
	DieWUm        float64   `json:"die_w_um"`
	DieHUm        float64   `json:"die_h_um"`
	Tiers         int       `json:"tiers"`
	NX            int       `json:"nx"`
	NY            int       `json:"ny"`
	UniformPower  float64   `json:"uniform_power_w_per_cm2"`
	PowerMap      []float64 `json:"power_map_w_per_cm2,omitempty"`
	BEOL          string    `json:"beol"`
	PillarCover   float64   `json:"pillar_coverage"`
	Sink          string    `json:"sink"`
	MemoryPerTier bool      `json:"memory_per_tier"`
}

// Example returns a ready-to-run spec: the paper's headline 12-tier
// scaffolded Gemmini-class stack.
func Example() StackJSON {
	return StackJSON{
		DieWUm: 690, DieHUm: 660,
		Tiers: 12, NX: 16, NY: 16,
		UniformPower:  53,
		BEOL:          "scaffolded",
		PillarCover:   0.10,
		Sink:          "twophase",
		MemoryPerTier: true,
	}
}

// Parse decodes raw JSON into the schema.
func Parse(raw []byte) (StackJSON, error) {
	var sj StackJSON
	if err := json.Unmarshal(raw, &sj); err != nil {
		return StackJSON{}, fmt.Errorf("specio: %w", err)
	}
	return sj, nil
}

// Marshal renders the schema as indented JSON.
func Marshal(sj StackJSON) ([]byte, error) {
	return json.MarshalIndent(sj, "", "  ")
}

// Build converts the schema into a solvable stack spec, checking that
// it assembles.
func Build(sj StackJSON) (*stack.Spec, error) {
	spec, err := parseSpec(sj)
	if err != nil {
		return nil, err
	}
	if _, _, err := spec.Build(); err != nil {
		return nil, fmt.Errorf("specio: %w", err)
	}
	return spec, nil
}

// parseSpec converts the schema into a stack spec without assembling
// it: the field checks of Build, minus the trial assembly.
func parseSpec(sj StackJSON) (*stack.Spec, error) {
	if sj.NX <= 0 || sj.NY <= 0 {
		return nil, fmt.Errorf("specio: bad grid %dx%d", sj.NX, sj.NY)
	}
	var beol stack.BEOLProps
	switch sj.BEOL {
	case "conventional", "":
		beol = stack.ConventionalBEOL()
	case "scaffolded":
		beol = stack.ScaffoldedBEOL()
	case "paper-conventional":
		beol = stack.PaperBEOL(false)
	case "paper-scaffolded":
		beol = stack.PaperBEOL(true)
	default:
		return nil, fmt.Errorf("specio: unknown beol %q", sj.BEOL)
	}
	var sink heatsink.Model
	switch sj.Sink {
	case "twophase", "":
		sink = heatsink.TwoPhase()
	case "microfluidic":
		sink = heatsink.Microfluidic()
	case "coldplate":
		sink = heatsink.ColdPlate()
	case "microchannel":
		sink = heatsink.TuckermanPease().Model()
	default:
		return nil, fmt.Errorf("specio: unknown sink %q", sj.Sink)
	}
	pm := make([]float64, sj.NX*sj.NY)
	switch {
	case len(sj.PowerMap) == len(pm):
		for i, q := range sj.PowerMap {
			if q < 0 {
				return nil, fmt.Errorf("specio: negative power at cell %d", i)
			}
			pm[i] = units.WPerCm2ToWPerM2(q)
		}
	case len(sj.PowerMap) == 0:
		if sj.UniformPower < 0 {
			return nil, fmt.Errorf("specio: negative uniform power %g", sj.UniformPower)
		}
		for i := range pm {
			pm[i] = units.WPerCm2ToWPerM2(sj.UniformPower)
		}
	default:
		return nil, fmt.Errorf("specio: power map has %d cells, want %d", len(sj.PowerMap), sj.NX*sj.NY)
	}
	if sj.PillarCover < 0 || sj.PillarCover > 1 {
		return nil, fmt.Errorf("specio: pillar coverage %g outside [0,1]", sj.PillarCover)
	}
	spec := &stack.Spec{
		DieW: units.UmToM(sj.DieWUm), DieH: units.UmToM(sj.DieHUm),
		Tiers: sj.Tiers, NX: sj.NX, NY: sj.NY,
		PowerMaps:     [][]float64{pm},
		BEOL:          beol,
		Sink:          sink,
		MemoryPerTier: sj.MemoryPerTier,
	}
	if sj.PillarCover > 0 {
		pf := stack.NewPillarField(sj.NX, sj.NY)
		for i := range pf.Coverage {
			pf.Coverage[i] = sj.PillarCover
		}
		spec.Pillars = pf
	}
	return spec, nil
}
