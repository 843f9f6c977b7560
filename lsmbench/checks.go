package main

import (
	"bytes"
	"crypto/md5"
	"encoding/hex"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// runKey names a recorded run: the -scale, -days and -seed its inputs
// were generated with.
type runKey struct {
	scale float64
	days  int
	seed  int64
}

// genDigests is the md5 of the concatenated daily text logs written by
// `lsmgen -stream -scale S -days D -seed N`. The logs are byte-identical
// at every shard and lane count, so one digest holds for the default
// configuration and the sequential reference alike.
var genDigests = map[runKey]string{
	{1, 28, 1}:  "f1d985ae01a858ab51e4e5d16a0f446d",
	{1, 28, 2}:  "d0f5ce1a3e671275c056fb9979021ad5",
	{1, 28, 3}:  "5e2a2aea9d49506d9b06dd3bde39fb6e",
	{1, 28, 4}:  "ecb1a328ac291c8a6f52367987e14b18",
	{1, 28, 5}:  "acdf50dfd02677e4e393ac70c047f21a",
	{1, 28, 6}:  "284ecf5064495158c7301b0abebe1e72",
	{1, 28, 7}:  "8531b13f1c90d0d83faec25d867893a7",
	{1, 28, 8}:  "3dc11a9aac4f6de674d1da3c874ba57c",
	{1, 28, 9}:  "7fee42c7b781a1ed11ce792e635709dc",
	{1, 28, 10}: "66688022c4370310707d5700000f87a9",
	{1, 28, 11}: "4c0c0d641d70bfe7eeb3f66f8af0812b",
	{1, 28, 12}: "32d5a880636bd30625179b23bbadedda",
	{1, 28, 13}: "c936723801b50179c38e882f14b56518",
	{1, 28, 14}: "d170e5e945496218c985791f139c2999",
	{1, 28, 15}: "3c0e815598391a9ac6b10cce6e884576",
	{1, 28, 16}: "3e4bb23224ea0fa90bbc5bcdaf3e5447",
	{1, 28, 17}: "556807a40ceb007630ee758223906d5b",
	{1, 28, 18}: "77c1b69bec1d9527bb5fce9365cbac6f",
	{1, 28, 19}: "7f0a75e3ac40b68ec14732169d018416",
	{1, 28, 20}: "76a8c90ff726e842e5188df390bd36e4",
}

// specDigests is the canonical md5 (see specDigest) of the model spec
// `lsmcal -days D -o spec.json` fits to the logs of
// `lsmgen -stream -scale S -days D -seed N` with the benchmark's spoiled
// lines appended.
var specDigests = map[runKey]string{
	{16, 28, 1}:  "f6476e84cf97d2d72bb293da39cc1a3e",
	{16, 28, 2}:  "2c8c2a769ddf2913507648fe0ff4f945",
	{16, 28, 3}:  "c912c2b5bd4d9bad227dc6fabe02b493",
	{16, 28, 4}:  "c64651b7d52658a4f18edbc9d6fefa42",
	{16, 28, 5}:  "07707b59b281eea631523f6820ad47ca",
	{16, 28, 6}:  "e3a31d3d6950b02583b37adf89f0e762",
	{16, 28, 7}:  "7f887e907d30d6ee1c33cb8b3a3601b4",
	{16, 28, 8}:  "9e541945c216d1fa08ede06b928353df",
	{16, 28, 9}:  "6535a719774c317dcd7e7650e798bfe8",
	{16, 28, 10}: "6acd969cf9d4e1ea43f3fa2ad4370e60",
	{16, 28, 11}: "f2d5e26db9fd823514f17c068e047e73",
	{16, 28, 12}: "5d34866393bf8989a0a687b6aab6157b",
	{16, 28, 13}: "e6fb7197e5cf1dd31304a867d65d1436",
	{16, 28, 14}: "b6e01f50b281e47f3b09395f5db1481e",
	{16, 28, 15}: "35947c9737332314c846167d96764dd8",
	{16, 28, 16}: "c1835c11567683648411e8af33c0d05c",
	{16, 28, 17}: "58c0c76d5bf7b28c5e94a84b015fd2ef",
	{16, 28, 18}: "df37cec69440381c5e26b7acf830cd24",
	{16, 28, 19}: "66d6d894a435de1f3a9a1bc40508863d",
	{16, 28, 20}: "5559a5c98fc6ac3b52006e0bd05ed12d",
}

// logFiles lists a daily-log directory's text logs in date order.
func logFiles(dir string) ([]string, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "wms-*.log"))
	sort.Strings(paths)
	return paths, err
}

// logDigest is the md5 of a directory's daily logs concatenated in date
// order — the realization digest the repository's determinism
// contract is stated in.
func logDigest(dir string) (string, int64, error) {
	paths, err := logFiles(dir)
	if err != nil {
		return "", 0, err
	}
	h := md5.New()
	var n int64
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return "", 0, err
		}
		m, err := io.Copy(h, f)
		f.Close()
		if err != nil {
			return "", 0, err
		}
		n += m
	}
	return hex.EncodeToString(h.Sum(nil)), n, nil
}

// specDigest hashes a model spec in canonical form: decoded and
// re-encoded with sorted keys and no whitespace, numbers kept exactly
// as written. Layout changes leave it alone; any fitted value that
// moves changes it.
func specDigest(path string) (string, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		return "", err
	}
	canon, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	sum := md5.Sum(canon)
	return hex.EncodeToString(sum[:]), nil
}

// checkDigest fails unless got equals want.
func checkDigest(what, got, want string) error {
	if got != want {
		return checkf("%s digest %s, want %s", what, got, want)
	}
	return nil
}

// checkParseCounts holds the characterize accounting: every served
// transfer and every corrupt entry the simulator injected parses as an
// entry, and exactly the lines the benchmark spoiled are skipped as
// malformed.
func checkParseCounts(parsed, malformed, served, injected, spoiled int) error {
	if parsed != served+injected {
		return checkf("parsed %d entries, want %d served + %d injected", parsed, served, injected)
	}
	if malformed != spoiled {
		return checkf("%d malformed lines skipped, want the %d spoiled", malformed, spoiled)
	}
	return nil
}

// tag is a live transfer's workload identity.
type tag struct {
	session int64
	seq     int
}

// checkLiveLog holds the live-control accounting: every transfer the
// client completed is in the server log exactly once under its tag,
// the log holds nothing else, and the server's served counter agrees.
func checkLiveLog(logged, completed []tag, served int64) error {
	seen := make(map[tag]int, len(logged))
	for _, t := range logged {
		seen[t]++
	}
	for _, t := range completed {
		switch seen[t] {
		case 1:
		case 0:
			return checkf("completed transfer %d.%d missing from the server log", t.session, t.seq)
		default:
			return checkf("transfer %d.%d logged %d times", t.session, t.seq, seen[t])
		}
	}
	if len(logged) != len(completed) {
		return checkf("server logged %d transfers, client completed %d", len(logged), len(completed))
	}
	if served != int64(len(completed)) {
		return checkf("/metrics transfers_served %d, client completed %d", served, len(completed))
	}
	return nil
}
