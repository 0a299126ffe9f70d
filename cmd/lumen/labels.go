package main

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"strconv"

	"lumen/internal/dataset"
)

// LoadLabeledPcap reads a capture plus its label CSV (columns:
// index,label,attack — as written by pcapgen) into a dataset. When
// labelPath is empty every packet is labelled benign (useful for running
// a fitted detector over an unlabelled capture).
func LoadLabeledPcap(pcapPath, labelPath string) (*dataset.Labeled, error) {
	ds, err := dataset.LoadPcap(pcapPath)
	if err != nil {
		return nil, err
	}
	pkts := ds.Packets
	if labelPath == "" {
		return ds, nil
	}
	lf, err := os.Open(labelPath)
	if err != nil {
		return nil, err
	}
	defer lf.Close()
	cr := csv.NewReader(lf)
	first := true
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if first && rec[0] == "index" { // header row
			first = false
			continue
		}
		first = false
		if len(rec) < 2 {
			continue
		}
		idx, err := strconv.Atoi(rec[0])
		if err != nil || idx < 0 || idx >= len(pkts) {
			return nil, fmt.Errorf("label row references packet %q out of range", rec[0])
		}
		lab, err := strconv.Atoi(rec[1])
		if err != nil {
			return nil, fmt.Errorf("bad label %q for packet %d", rec[1], idx)
		}
		ds.Labels[idx] = lab
		if len(rec) > 2 {
			ds.Attacks[idx] = rec[2]
		}
	}
	return ds, nil
}
