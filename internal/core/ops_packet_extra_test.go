package core

import (
	"testing"
)

func TestDot11FeaturesOp(t *testing.T) {
	ds := smallDS(t, "P2")
	out, err := opDot11Features(chunkCtx(), []Value{newPackets(ds)}, params{})
	if err != nil {
		t.Fatal(err)
	}
	f := out.(*Frame)
	if f.N != len(ds.Packets) {
		t.Fatalf("rows %d != packets %d", f.N, len(ds.Packets))
	}
	for _, name := range []string{"subtype", "is_mgmt", "retry", "duration", "tx_rate", "tx_deauth_rate", "payload_len"} {
		if f.Col(name) == nil {
			t.Errorf("missing column %q", name)
		}
	}
	// Deauth frames must show a rising per-transmitter deauth rate.
	var maxDeauthRate float64
	for _, v := range f.Col("tx_deauth_rate").F {
		if v > maxDeauthRate {
			maxDeauthRate = v
		}
	}
	if maxDeauthRate < 2 {
		t.Errorf("max deauth rate %v; the flood should drive it up", maxDeauthRate)
	}
	// 802.11 management share should be substantial (beacons).
	mgmt := 0.0
	for _, v := range f.Col("is_mgmt").F {
		mgmt += v
	}
	if mgmt < float64(f.N)/10 {
		t.Errorf("only %v management frames", mgmt)
	}
}

func TestKitsuneFeaturesCustomLambdas(t *testing.T) {
	ds := smallDS(t, "P1")
	out, err := opKitsuneFeatures(chunkCtx(), []Value{newPackets(ds)}, params{
		"lambdas": []any{0.5, 0.05},
	})
	if err != nil {
		t.Fatal(err)
	}
	f := out.(*Frame)
	if len(f.Cols) != 26 { // 2 lambdas x 13 stats
		t.Fatalf("cols = %d, want 26", len(f.Cols))
	}
	if f.Col("k_0.5_srcmean") == nil || f.Col("k_0.05_jitstd") == nil {
		t.Fatalf("lambda-named columns missing: %v", f.Names()[:4])
	}
}

func TestNewAppLayerFields(t *testing.T) {
	ds := smallDS(t, "F1") // has benign MQTT + HTTP and an HTTP flood
	out, err := opFieldExtract(chunkCtx(), []Value{newPackets(ds)}, params{
		"fields": []any{"is_http", "http_is_req", "http_path_len", "is_mqtt", "mqtt_type", "mqtt_topic_len"},
	})
	if err != nil {
		t.Fatal(err)
	}
	f := out.(*Frame)
	sum := func(name string) float64 {
		var s float64
		for _, v := range f.Col(name).F {
			s += v
		}
		return s
	}
	if sum("is_http") == 0 {
		t.Error("no HTTP packets flagged")
	}
	if sum("is_mqtt") == 0 {
		t.Error("no MQTT packets flagged")
	}
	if sum("http_path_len") == 0 {
		t.Error("HTTP request paths not measured")
	}
	if sum("mqtt_topic_len") == 0 {
		t.Error("MQTT topics not measured")
	}
}

func TestApplyAggregatesParallelMatchesSerial(t *testing.T) {
	// Build a frame with >256 groups to engage the worker pool and check
	// the result matches a small serial case computed per group.
	n := 2048
	f := NewFrame(n)
	keys := make([]string, n)
	ts := make([]float64, n)
	v := make([]float64, n)
	for i := 0; i < n; i++ {
		keys[i] = string(rune('a' + i%300)) // 300 groups
		ts[i] = float64(i)
		v[i] = float64(i % 7)
	}
	f.AddS("k", keys)
	f.AddF("ts", ts)
	f.AddF("v", v)
	g, err := groupRows(f, []string{"k"})
	if err != nil {
		t.Fatal(err)
	}
	out, err := opApplyAggregates(nil, []Value{g}, params{
		"list": []any{map[string]any{"col": "v", "fn": "sum"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	af := out.(*Frame)
	if af.N != len(g.Groups) {
		t.Fatalf("agg rows = %d, want %d", af.N, len(g.Groups))
	}
	// Spot-check group sums independently.
	for gi := 0; gi < 5; gi++ {
		var want float64
		for _, r := range g.Groups[gi] {
			want += v[r]
		}
		if got := af.Col("v_sum").F[gi]; got != want {
			t.Fatalf("group %d sum = %v, want %v", gi, got, want)
		}
	}
}
