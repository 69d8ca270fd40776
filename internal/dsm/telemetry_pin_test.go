package dsm

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"testing"

	"repro/internal/apps"
	"repro/internal/config"
	"repro/internal/telemetry"
)

// pinWindow is the telemetry window of the pinned runs. It is small
// enough that a counter charged at a moved timestamp usually lands in
// another window and changes the windowed CSV.
const pinWindow = 1 << 12

// telemetryPins are literal SHA-256 digests of the three telemetry
// artifacts — windowed series CSV, Chrome trace JSON and timeline CSV,
// in that order — of every registered system (default thresholds) on
// migratory and ocean at scale 8 on the ring fabric. They pin not only
// what each counter totals but the simulated instant it was charged at.
var telemetryPins = map[string][3]string{
	"migratory/perfect":           {"77b5274f1623421434509f8fca9f044911b3770feed0229620c89d8b47fe2340", "916ce8281ef20081efbad91c78b11049a91e63c8639e43dd7dc0489623c2cc02", "4c814764d5da6e18c27bb81c343745b2b6a18ea83e3c4c898128b61f18ba4bd7"},
	"migratory/ccnuma":            {"66c4b7e392185d90110228d691473819aa80f13d4dab797b4e04e929e5538a99", "916ce8281ef20081efbad91c78b11049a91e63c8639e43dd7dc0489623c2cc02", "4c814764d5da6e18c27bb81c343745b2b6a18ea83e3c4c898128b61f18ba4bd7"},
	"migratory/rep":               {"66c4b7e392185d90110228d691473819aa80f13d4dab797b4e04e929e5538a99", "916ce8281ef20081efbad91c78b11049a91e63c8639e43dd7dc0489623c2cc02", "4c814764d5da6e18c27bb81c343745b2b6a18ea83e3c4c898128b61f18ba4bd7"},
	"migratory/mig":               {"8e102d63535073512c42774a56af39641095365e38a3b346aa1fd274d858a5f2", "201ad8beeb7bd85efec9e51bed0d414d872d2cd6e2a99330312a78102b09d447", "cf4b19fdd040c4c650b7b53538ff5e372beafa08d85a3114f1be2117249e7294"},
	"migratory/migrep":            {"8e102d63535073512c42774a56af39641095365e38a3b346aa1fd274d858a5f2", "201ad8beeb7bd85efec9e51bed0d414d872d2cd6e2a99330312a78102b09d447", "cf4b19fdd040c4c650b7b53538ff5e372beafa08d85a3114f1be2117249e7294"},
	"migratory/rnuma":             {"2adcf3574af2fdb458547d0c1f57405efa22de676bee84cd036df931a183bf2e", "1dbd2d963b526bc2aefb2a070a39d02d48d2123705464b3ba26d787c76e30f18", "8ff0de4a58bc865b280bef8c872d792cf572344ffb8714f28fcebcab648f0182"},
	"migratory/rnuma-inf":         {"2adcf3574af2fdb458547d0c1f57405efa22de676bee84cd036df931a183bf2e", "1dbd2d963b526bc2aefb2a070a39d02d48d2123705464b3ba26d787c76e30f18", "8ff0de4a58bc865b280bef8c872d792cf572344ffb8714f28fcebcab648f0182"},
	"migratory/rnuma-half":        {"2adcf3574af2fdb458547d0c1f57405efa22de676bee84cd036df931a183bf2e", "1dbd2d963b526bc2aefb2a070a39d02d48d2123705464b3ba26d787c76e30f18", "8ff0de4a58bc865b280bef8c872d792cf572344ffb8714f28fcebcab648f0182"},
	"migratory/rnuma-half-migrep": {"05759abc3ffc1712516baf57e71191556a55254abffe66295b97bd5bb3a16859", "2525a22e8bfa60441824684c2501413307b87f048a7d245bcbd6744b53447be8", "b7fe232ec7e0d81af9cafe87d2d3e5ab21368a8a9435c89600b8016811de7962"},
	"migratory/scoma":             {"48207648a4e15bdde1ff72750bfb4d1390061f292c23a10b3862657931cde080", "3cac3d77c99b0dcf69988e26f3feab498da9e22e142a2ab51ed521069d4447a6", "e64437d59dc6f2b01f5e04af966fc8dede47d01ef03841fde6c936e401bd1d1a"},
	"migratory/migrep-contend":    {"a55c3c4b26c8d6fa7fbe97bddb3a74f1fefbcc39d33f49601861328bd0684502", "76deea1e80546b34dce6c1e6c0f33aa43728660d78372dcc7f33187f35a0d0fb", "22fc6c8f04347c7865815b29e93bdd6f80ba764a7e48c274dd3ec0fbd28c58ff"},
	"ocean/perfect":               {"96c1e41b2d8adfa0bdb0517cf4f6282be9f6f76602cfd308a25a8281d74cef14", "916ce8281ef20081efbad91c78b11049a91e63c8639e43dd7dc0489623c2cc02", "4c814764d5da6e18c27bb81c343745b2b6a18ea83e3c4c898128b61f18ba4bd7"},
	"ocean/ccnuma":                {"96c1e41b2d8adfa0bdb0517cf4f6282be9f6f76602cfd308a25a8281d74cef14", "916ce8281ef20081efbad91c78b11049a91e63c8639e43dd7dc0489623c2cc02", "4c814764d5da6e18c27bb81c343745b2b6a18ea83e3c4c898128b61f18ba4bd7"},
	"ocean/rep":                   {"96c1e41b2d8adfa0bdb0517cf4f6282be9f6f76602cfd308a25a8281d74cef14", "916ce8281ef20081efbad91c78b11049a91e63c8639e43dd7dc0489623c2cc02", "4c814764d5da6e18c27bb81c343745b2b6a18ea83e3c4c898128b61f18ba4bd7"},
	"ocean/mig":                   {"3cb6795b5a8f878765d81eb231975385f3338c156ad716d3caf9ab3eb02afe38", "388402718c58899d6f1b7f65be7ea3c2e28c7745c0590a53f40b5a3aefb4357f", "5d9fc1519cde7318cb89a7be2a8486b07de37a464a580486d6a7824154045afe"},
	"ocean/migrep":                {"3cb6795b5a8f878765d81eb231975385f3338c156ad716d3caf9ab3eb02afe38", "388402718c58899d6f1b7f65be7ea3c2e28c7745c0590a53f40b5a3aefb4357f", "5d9fc1519cde7318cb89a7be2a8486b07de37a464a580486d6a7824154045afe"},
	"ocean/rnuma":                 {"01b5a6d24252619d08c87380d264a3885902f8e84e48e3cd87add3a874a9dd6d", "6cb06db3c5749fe4caba7e2a415808208664bbed2efa61ed6ec65f5d97e5b44f", "411bff5e6d1bfd598a07ce464258124753398de3689980c9c0ebe65bef878c33"},
	"ocean/rnuma-inf":             {"01b5a6d24252619d08c87380d264a3885902f8e84e48e3cd87add3a874a9dd6d", "6cb06db3c5749fe4caba7e2a415808208664bbed2efa61ed6ec65f5d97e5b44f", "411bff5e6d1bfd598a07ce464258124753398de3689980c9c0ebe65bef878c33"},
	"ocean/rnuma-half":            {"01b5a6d24252619d08c87380d264a3885902f8e84e48e3cd87add3a874a9dd6d", "6cb06db3c5749fe4caba7e2a415808208664bbed2efa61ed6ec65f5d97e5b44f", "411bff5e6d1bfd598a07ce464258124753398de3689980c9c0ebe65bef878c33"},
	"ocean/rnuma-half-migrep":     {"36f0bd737187152a05e68b7b0936aa7fba5938d69db74a0cbfb8cd3cc4ee14be", "828e0dd3c694b39e97647b8cf80243e735b283861e316fa3ee447b0c8f515cb3", "47119b45b8c0130fac8f9f5f5c3990f93bbb5c0ec7c1fa90760c2b3ae2383e1b"},
	"ocean/scoma":                 {"704c86c17ce3d3d3ce6b17b4ab9bd0bae179bbacd037ae39268211c1fd7522d5", "431e39fe9dadd39f1537bffcbabe82395ca7f6fabf93c23c5c5b296ae47ad70d", "0b474b1bc1060045487dbb80618ded7ad89ce751be2460e9d9c7603aaab0904e"},
	"ocean/migrep-contend":        {"b99d1c927ffa19729ced7907542a09ddcb45457ced0c78af846a8c371057f50c", "df55d312e53879b4bf6ea82d95e5d6084c13a975812b5e7fc86bd61a80681569", "622100b1df237ab880dce25f4d1c644051d2ac7d7923fcdea44cdddeb66c9460"},
}

// TestTelemetryArtifactsPinned runs every registered system on the
// pinned workloads with a timeline collector and checks the digests of
// its artifacts.
func TestTelemetryArtifactsPinned(t *testing.T) {
	cl := config.DefaultCluster()
	cl.Net = config.Network{Topology: config.TopoRing}
	for _, name := range []string{"migratory", "ocean"} {
		app, err := apps.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := app.Generate(apps.Params{CPUs: cl.TotalCPUs(), Scale: 8})
		if err != nil {
			t.Fatal(err)
		}
		for _, sys := range Systems() {
			key := name + "/" + sys.Name
			col := telemetry.New(telemetry.Config{Window: pinWindow, Timeline: true})
			if _, err := RunWithOptions(tr, sys.New(config.DefaultThresholds()), cl, config.Default(),
				config.DefaultThresholds(), RunOptions{Telemetry: col}); err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			var got [3]string
			for i, write := range []func(io.Writer) error{col.WriteWindowsCSV, col.WriteChromeTrace, col.WriteTimelineCSV} {
				var buf bytes.Buffer
				if err := write(&buf); err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				sum := sha256.Sum256(buf.Bytes())
				got[i] = hex.EncodeToString(sum[:])
			}
			if got != telemetryPins[key] {
				t.Errorf("%s: telemetry artifacts moved; got\n\t%q: {%q, %q, %q},",
					key, key, got[0], got[1], got[2])
			}
		}
	}
	if len(telemetryPins) != 2*len(Systems()) {
		t.Errorf("%d pins for %d runs", len(telemetryPins), 2*len(Systems()))
	}
}
