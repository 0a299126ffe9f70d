package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// ParsePipeline decodes a pipeline template from JSON — the file format a
// Lumen user fills in (paper Fig. 4) — and type-checks it. Unknown
// top-level fields and anything after the template are rejected so typos
// surface immediately.
func ParsePipeline(data []byte) (*Pipeline, error) {
	var p Pipeline
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&p); err != nil {
		return nil, fmt.Errorf("core: parsing pipeline template: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("core: parsing pipeline template: data after the template")
	}
	eng := NewEngine(&p)
	if err := eng.Check(); err != nil {
		return nil, err
	}
	return &p, nil
}

// LoadPipeline reads and parses a template file.
func LoadPipeline(path string) (*Pipeline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ParsePipeline(data)
}

// MarshalPipeline renders a pipeline back to indented JSON (for saving
// synthesized algorithms).
func MarshalPipeline(p *Pipeline) ([]byte, error) {
	return json.MarshalIndent(p, "", "  ")
}
