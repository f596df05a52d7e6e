package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"testing"
)

// studyGoldenHashes pins, per "study.format", the sha256 of the output the
// hand-rolled per-study runners produced at PR 13, before they became rows
// of the study table: the text and JSON forms of the five sim studies, and
// the regression gate against the committed baseline in all three forms.
// (The CSV forms are committed in full under testdata/.) After an
// intentional output change, refresh the CSVs with
//
//	for s in scaling regression faults skew accuracy; do
//	  go run ./cmd/loadgen -study $s -format csv > cmd/loadgen/testdata/study_$s.csv
//	done
//
// and paste the hashes this test prints on mismatch.
var studyGoldenHashes = map[string]string{
	"scaling.text":    "cb50c1ef098cb2aa6f160595d3114d42586bf9cd14a8a9999ea2d94d6d0eeea8",
	"scaling.json":    "47b07839154d6a39f0e2adb84c74a452312419e1d0b048cdd23b28c072b788e6",
	"regression.text": "54ad46f1edb517928ab05f499a5d6596a35d4bf56d7a20945796288205181b93",
	"regression.json": "9e8f0b26bba84892e3e4c939163abe5c9e9339654490b555fcacfed2936ec9aa",
	"faults.text":     "550647368783076f8b1c2167b6f3b569d803671ac42b2776c9e1955ae75103fc",
	"faults.json":     "736f02709c0894e81ba879f449c36ce618d7f59fcdaa4bc0e467367671fc8c2b",
	"skew.text":       "efb98ba1e5bbfe7343801c47b9e8c2700be51b24d11aac59e7d373ad92c496bc",
	"skew.json":       "b231fde7fdf55f51edb5b469cd13ccefd3d4b660fde5160e052d81303f7a28c8",
	"accuracy.text":   "349005d55dcf159527dd8539c7e54d297adfbe5b0ae5001867944582acf715e6",
	"accuracy.json":   "caa7b206c0b7be0a1608490f4d858774b00301ac8156639513583204388302c6",
	"check.csv":       "bff3e47ca334f253def975809ea4179ee37c4aa7fe73410f84a0ffda32913c56",
	"check.text":      "2a95d0e1b9bc7929233ab523caa74b10baffabd89bbb50980cc76ec406b6844b",
	"check.json":      "99c255b57ed18a4f0a12de07b02ef0edd3b0da009ebaeb447194cc19c82b93ad",
}

// TestStudyGoldens: the five sim studies are pure functions of the code.
// Their CSVs must match the committed copies byte for byte, and every other
// rendering must hash to the recorded value — an engine or simulator
// refactor that perturbs the (time, sequence) event order, or a renderer
// that drifts, shows up here as a diff. Running each study three times also
// pins determinism across invocations.
func TestStudyGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every packaged study in every format")
	}
	output := func(t *testing.T, args ...string) []byte {
		var b bytes.Buffer
		if err := run(args, &b); err != nil {
			t.Fatalf("run %v: %v", args, err)
		}
		return b.Bytes()
	}
	checkHash := func(t *testing.T, key string, got []byte) {
		if sum := fmt.Sprintf("%x", sha256.Sum256(got)); sum != studyGoldenHashes[key] {
			t.Errorf("%s hashes to %s, want %s", key, sum, studyGoldenHashes[key])
		}
	}
	for _, study := range []string{"scaling", "regression", "faults", "skew", "accuracy"} {
		t.Run(study, func(t *testing.T) {
			t.Parallel()
			want, err := os.ReadFile("testdata/study_" + study + ".csv")
			if err != nil {
				t.Fatal(err)
			}
			// The repo benchmark's invocation (bench/workloads.go); seed 1 is
			// the default and the pool size never shows in the output.
			if got := output(t, "-study", study, "-format", "csv", "-parallel", "2", "-seed", "1"); !bytes.Equal(got, want) {
				t.Errorf("-study %s -format csv differs from testdata/study_%s.csv:\n%s", study, study, got)
			}
			for _, format := range []string{"text", "json"} {
				checkHash(t, study+"."+format, output(t, "-study", study, "-format", format))
			}
		})
	}
	t.Run("check", func(t *testing.T) {
		t.Parallel()
		for _, format := range []string{"csv", "text", "json"} {
			checkHash(t, "check."+format, output(t, "-study", "regression", "-format", format,
				"-baseline", "check", "../../baselines/default.json"))
		}
	})
}
