package wrht

import "testing"

func TestMultiRackTime(t *testing.T) {
	cfg := DefaultConfig(1) // Nodes ignored by MultiRackTime
	res, err := MultiRackTime(cfg, 8, 128, MustModel("ResNet50").Bytes)
	if err != nil {
		t.Fatal(err)
	}
	if res.IntraReduceSec <= 0 || res.InterSec <= 0 || res.IntraBroadcastSec <= 0 {
		t.Fatalf("non-positive phases: %+v", res)
	}
	sum := res.IntraReduceSec + res.InterSec + res.IntraBroadcastSec
	if res.TotalSec != sum {
		t.Fatalf("total %v != phase sum %v", res.TotalSec, sum)
	}
	if res.TotalSec >= res.FlatERingSec {
		t.Fatalf("hierarchy %v not under flat E-Ring %v", res.TotalSec, res.FlatERingSec)
	}
}

func TestMultiRackValidation(t *testing.T) {
	cfg := DefaultConfig(1)
	if _, err := MultiRackTime(cfg, 1, 8, 1024); err == nil {
		t.Fatal("1 rack accepted")
	}
	if _, err := MultiRackTime(cfg, 4, 8, 0); err == nil {
		t.Fatal("zero bytes accepted")
	}
}

func TestMultiRackErrorPaths(t *testing.T) {
	badOptical := DefaultConfig(1)
	badOptical.Optical.Wavelengths = 0
	badElectrical := DefaultConfig(1)
	badElectrical.Electrical.LinkGbps = -1
	cases := []struct {
		name         string
		cfg          Config
		racks, nodes int
		bytes        int64
	}{
		{"negative bytes", DefaultConfig(1), 4, 8, -1},
		{"zero racks", DefaultConfig(1), 0, 8, 1024},
		{"negative racks", DefaultConfig(1), -2, 8, 1024},
		{"zero nodes per rack", DefaultConfig(1), 4, 0, 1024},
		{"one node per rack", DefaultConfig(1), 4, 1, 1024},
		{"negative nodes per rack", DefaultConfig(1), 4, -3, 1024},
		{"invalid optical", badOptical, 4, 8, 1024},
		{"invalid electrical", badElectrical, 4, 8, 1024},
	}
	for _, tc := range cases {
		if _, err := MultiRackTime(tc.cfg, tc.racks, tc.nodes, tc.bytes); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestVerifyMultiRackErrorPaths(t *testing.T) {
	cfg := DefaultConfig(1)
	if err := VerifyMultiRack(cfg, 0, 8, 16); err == nil {
		t.Error("zero racks accepted")
	}
	if err := VerifyMultiRack(cfg, 4, 0, 16); err == nil {
		t.Error("zero nodes per rack accepted")
	}
	bad := cfg
	bad.Optical.Wavelengths = 0
	if err := VerifyMultiRack(bad, 4, 8, 16); err == nil {
		t.Error("invalid optical config accepted")
	}
}

func TestVerifyMultiRack(t *testing.T) {
	cfg := DefaultConfig(1)
	if err := VerifyMultiRack(cfg, 3, 12, 29); err != nil {
		t.Fatal(err)
	}
	if err := VerifyMultiRack(cfg, 1, 12, 29); err == nil {
		t.Fatal("1 rack accepted")
	}
}

func TestMultiRackBytesPerElemValidation(t *testing.T) {
	// Regression: a negative element width used to flow straight into the
	// element count; it must be rejected exactly like CommunicationTime
	// rejects it, while 0 still means the FP32 default.
	bad := DefaultConfig(1)
	bad.BytesPerElem = -4
	if _, err := MultiRackTime(bad, 2, 8, 1<<20); err == nil {
		t.Fatal("negative BytesPerElem accepted")
	}
	zero := DefaultConfig(1)
	zero.BytesPerElem = 0
	four := DefaultConfig(1)
	four.BytesPerElem = 4
	rz, err := MultiRackTime(zero, 2, 8, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	rf, err := MultiRackTime(four, 2, 8, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if rz != rf {
		t.Fatalf("zero width %+v != default width %+v", rz, rf)
	}
}

// TestMultiRackTimeBytesPerElemInvariant: the phases price the buffer, not
// its element width — a fixed byte count divisible by every width costs the
// same at 2, 4, and 8 bytes per element.
func TestMultiRackTimeBytesPerElemInvariant(t *testing.T) {
	const bytes = 16 << 20
	var want MultiRackResult
	for i, bpe := range []int{2, 4, 8} {
		cfg := DefaultConfig(1)
		cfg.BytesPerElem = bpe
		got, err := MultiRackTime(cfg, 4, 16, bytes)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			want = got
			continue
		}
		if got != want {
			t.Fatalf("%d B/elem prices differently from 2 B/elem:\n got %+v\nwant %+v", bpe, got, want)
		}
	}
}
