// Command pcapgen synthesizes one of the benchmark datasets to a pcap
// file plus a ground-truth label CSV (index,label,attack), so the traces
// can be inspected with standard tooling or replayed through cmd/lumen.
//
// Usage:
//
//	pcapgen -dataset F1 -scale 1.0 -out f1.pcap -labels f1.labels.csv
//	pcapgen -list
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"os"
	"strconv"

	"lumen/internal/dataset"
	"lumen/internal/pcap"
)

func main() {
	var (
		list   = flag.Bool("list", false, "list available datasets and exit")
		dsID   = flag.String("dataset", "", "dataset ID (F0-F9, P0-P4)")
		scale  = flag.Float64("scale", 1.0, "scale factor")
		out    = flag.String("out", "", "output pcap path")
		labels = flag.String("labels", "", "output label CSV path (optional)")
	)
	flag.Parse()

	if *list {
		for _, s := range dataset.Registry() {
			fmt.Printf("%-3s %-11s %-8v %s (attacks: %v)\n", s.ID, s.Granularity, s.Link, s.Desc, s.Attacks)
		}
		return
	}
	if err := run(*dsID, *scale, *out, *labels); err != nil {
		fmt.Fprintln(os.Stderr, "pcapgen:", err)
		os.Exit(1)
	}
}

func run(dsID string, scale float64, out, labels string) error {
	spec, ok := dataset.Get(dsID)
	if !ok {
		return fmt.Errorf("unknown dataset %q (try -list)", dsID)
	}
	if out == "" {
		return fmt.Errorf("need -out")
	}
	ds := spec.Generate(scale)

	f, err := os.Create(out)
	if err != nil {
		return err
	}
	defer f.Close()
	w, err := pcap.NewWriter(f, ds.Link)
	if err != nil {
		return err
	}
	for _, p := range ds.Packets {
		if err := w.WriteRaw(p.Ts, p.Data); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Printf("wrote %s: %d packets, %.1f%% malicious, attacks %v\n",
		out, len(ds.Packets), ds.MaliciousFraction()*100, ds.AttackSet())

	if labels == "" {
		return nil
	}
	lf, err := os.Create(labels)
	if err != nil {
		return err
	}
	defer lf.Close()
	cw := csv.NewWriter(lf)
	if err := cw.Write([]string{"index", "label", "attack"}); err != nil {
		return err
	}
	for i := range ds.Packets {
		if err := cw.Write([]string{strconv.Itoa(i), strconv.Itoa(ds.Labels[i]), ds.Attacks[i]}); err != nil {
			return err
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", labels)
	return nil
}
