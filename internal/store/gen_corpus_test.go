package store

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

func TestGenerateFuzzCorpus(t *testing.T) {
	if os.Getenv("GEN_FUZZ_CORPUS") == "" {
		t.Skip("set GEN_FUZZ_CORPUS=1 to regenerate")
	}
	rec := fuzzSeedRecord()
	write := func(dir, name string, lines ...string) {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		body := "go test fuzz v1\n"
		for _, l := range lines {
			body += l + "\n"
		}
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	recDir := filepath.Join("testdata", "fuzz", "FuzzDecodeRecord")
	for _, v := range []int{FormatV3, CurrentFormat} {
		payload := encodeRecord(&rec, v)
		write(recDir, fmt.Sprintf("valid-v%d", v),
			"[]byte("+strconv.Quote(string(payload))+")", fmt.Sprintf("int(%d)", v))
		write(recDir, fmt.Sprintf("truncated-v%d", v),
			"[]byte("+strconv.Quote(string(payload[:len(payload)/2]))+")", fmt.Sprintf("int(%d)", v))
	}
	expDir := filepath.Join("testdata", "fuzz", "FuzzDecodeExport")
	doc := EncodeRecords([]Record{rec})
	write(expDir, "valid-doc", "[]byte("+strconv.Quote(string(doc))+")")
	write(expDir, "truncated-doc", "[]byte("+strconv.Quote(string(doc[:len(doc)-3]))+")")
	write(expDir, "header-only", "[]byte("+strconv.Quote(string(doc[:exportHeaderLen]))+")")
}
