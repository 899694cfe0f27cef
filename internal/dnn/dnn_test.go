package dnn

import (
	"math"
	"testing"
)

func TestAlexNetTotal(t *testing.T) {
	// The classic single-tower count the paper rounds to "62.3M".
	if got := AlexNet().TotalParams(); got != 62_378_344 {
		t.Fatalf("AlexNet params = %d, want 62378344", got)
	}
}

func TestVGG16Total(t *testing.T) {
	if got := VGG16().TotalParams(); got != 138_357_544 {
		t.Fatalf("VGG16 params = %d, want 138357544", got)
	}
}

func TestResNet50Total(t *testing.T) {
	// torchvision resnet50: 25,557,032 (the paper rounds to "25M").
	if got := ResNet50().TotalParams(); got != 25_557_032 {
		t.Fatalf("ResNet50 params = %d, want 25557032", got)
	}
}

func TestGoogLeNetTotal(t *testing.T) {
	// Architectural count with conv biases; the paper quotes 6.7977M for
	// the same network — assert we are within 3% and record the exact value.
	got := GoogLeNet().TotalParams()
	if got != 6_998_552 {
		t.Fatalf("GoogLeNet params = %d, want 6998552", got)
	}
	paper := 6_797_700.0
	if d := math.Abs(float64(got)-paper) / paper; d > 0.03 {
		t.Fatalf("GoogLeNet drifts %.1f%% from the paper's 6.7977M", 100*d)
	}
}

func TestGradientBytes(t *testing.T) {
	m := AlexNet()
	if got := m.GradientBytes(4); got != 4*62_378_344 {
		t.Fatalf("FP32 gradient bytes = %d", got)
	}
	if got := m.GradientBytes(2); got != 2*62_378_344 {
		t.Fatalf("FP16 gradient bytes = %d", got)
	}
}

func TestPaperModelsOrder(t *testing.T) {
	ms := PaperModels()
	want := []string{"AlexNet", "VGG16", "ResNet50", "GoogLeNet"}
	if len(ms) != len(want) {
		t.Fatalf("%d models", len(ms))
	}
	for i, w := range want {
		if ms[i].Name != w {
			t.Fatalf("model %d = %s, want %s", i, ms[i].Name, w)
		}
	}
}

func TestByName(t *testing.T) {
	m, err := ByName("VGG16")
	if err != nil || m.Name != "VGG16" {
		t.Fatalf("ByName: %v, %v", m, err)
	}
	if _, err := ByName("LeNet"); err == nil {
		t.Fatal("unknown model accepted")
	}
}

// TestCatalogEntriesMatchModels: the catalog's names are its models' names,
// and each entry holds its model's scalars.
func TestCatalogEntriesMatchModels(t *testing.T) {
	models := append(PaperModels(), ExtensionModels()...)
	if len(models) != len(catalog) || len(entries()) != len(catalog) {
		t.Fatalf("%d models, %d entries, catalog of %d", len(models), len(entries()), len(catalog))
	}
	for i, m := range models {
		if catalog[i].name != m.Name {
			t.Errorf("catalog name %q builds %q", catalog[i].name, m.Name)
		}
		want := Entry{Name: m.Name, Params: m.TotalParams(), Layers: len(m.Layers)}
		if e, err := Lookup(m.Name); err != nil || e != want {
			t.Errorf("Lookup(%s) = %+v, %v; want %+v", m.Name, e, err, want)
		}
		if i < numPaper && PaperEntries()[i] != want {
			t.Errorf("PaperEntries()[%d] = %+v, want %+v", i, PaperEntries()[i], want)
		}
	}
	const miss = `dnn: unknown model "LeNet" (have AlexNet, VGG16, ResNet50, GoogLeNet, BERT-Large, GPT-2-XL)`
	if _, err := Lookup("LeNet"); err == nil || err.Error() != miss {
		t.Errorf("Lookup miss: %v", err)
	}
	if _, err := ByName("LeNet"); err == nil || err.Error() != miss {
		t.Errorf("ByName miss: %v", err)
	}
}

// TestByNameBuildsOnlyTheNamedModel: ByName costs what its constructor
// costs, and every call returns layers of its own.
func TestByNameBuildsOnlyTheNamedModel(t *testing.T) {
	byName := testing.AllocsPerRun(10, func() { _, _ = ByName("AlexNet") })
	direct := testing.AllocsPerRun(10, func() { _ = AlexNet() })
	if byName != direct {
		t.Fatalf("ByName(AlexNet) makes %.0f allocations, AlexNet() %.0f", byName, direct)
	}
	a, _ := ByName("ResNet50")
	a.Layers[0].Params = -1
	if b, _ := ByName("ResNet50"); b.Layers[0].Params <= 0 {
		t.Fatal("ByName shares layers between calls")
	}
}

func TestLayersHavePositiveParams(t *testing.T) {
	for _, m := range PaperModels() {
		if len(m.Layers) < 5 {
			t.Fatalf("%s has only %d layers", m.Name, len(m.Layers))
		}
		for _, l := range m.Layers {
			if l.Params <= 0 {
				t.Fatalf("%s layer %q has %d params", m.Name, l.Name, l.Params)
			}
			if l.Name == "" {
				t.Fatalf("%s has unnamed layer", m.Name)
			}
		}
	}
}

func TestResNet50LayerStructure(t *testing.T) {
	m := ResNet50()
	// conv1+bn1, 16 bottlenecks (3+4+6+3) with 6 layers each plus 4
	// downsample pairs of 2, and the final fc:
	// 2 + 16*6 + 4*2 + 1 = 107 layers.
	if len(m.Layers) != 107 {
		t.Fatalf("ResNet50 has %d layers, want 107", len(m.Layers))
	}
}

func TestBucketsCoverAllLayersOnce(t *testing.T) {
	for _, m := range PaperModels() {
		for _, capMB := range []int64{1, 25, 100} {
			buckets, err := m.Buckets(capMB<<20, 4)
			if err != nil {
				t.Fatal(err)
			}
			var total int64
			lastFirst := len(m.Layers)
			for _, b := range buckets {
				if b.FirstLayer > b.LastLayer {
					t.Fatalf("%s: inverted bucket %+v", m.Name, b)
				}
				if b.LastLayer != lastFirst-1 {
					t.Fatalf("%s: bucket %+v not contiguous with previous first %d",
						m.Name, b, lastFirst)
				}
				lastFirst = b.FirstLayer
				var sum int64
				for i := b.FirstLayer; i <= b.LastLayer; i++ {
					sum += m.Layers[i].Params
				}
				if sum != b.Params {
					t.Fatalf("%s: bucket params %d, layers sum %d", m.Name, b.Params, sum)
				}
				total += b.Params
			}
			if lastFirst != 0 {
				t.Fatalf("%s: buckets do not reach layer 0", m.Name)
			}
			if total != m.TotalParams() {
				t.Fatalf("%s: buckets cover %d params of %d", m.Name, total, m.TotalParams())
			}
		}
	}
}

func TestBucketsRespectCap(t *testing.T) {
	m := VGG16()
	const cap = 25 << 20 // 25 MB, Horovod-ish fusion buffer
	buckets, err := m.Buckets(cap, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range buckets {
		oversized := b.Params*4 > cap
		single := b.FirstLayer == b.LastLayer
		if oversized && !single {
			t.Fatalf("multi-layer bucket exceeds cap: %+v", b)
		}
	}
	if len(buckets) < 2 {
		t.Fatalf("VGG16 at 25MB cap should need several buckets, got %d", len(buckets))
	}
}

func TestBucketsValidation(t *testing.T) {
	m := AlexNet()
	if _, err := m.Buckets(0, 4); err == nil {
		t.Fatal("zero cap accepted")
	}
	if _, err := m.Buckets(1<<20, 0); err == nil {
		t.Fatal("zero elem width accepted")
	}
}

func TestStringFormat(t *testing.T) {
	if s := AlexNet().String(); s == "" {
		t.Fatal("empty String")
	}
}
