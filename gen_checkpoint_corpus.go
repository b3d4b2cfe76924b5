//go:build ignore

// gen_checkpoint_corpus regenerates the checked-in seed corpus of
// FuzzCheckpointRecords under testdata/fuzz: a real (tiny) checkpoint with
// valid CRCs, torn and damaged variants of it, and hand-built streams whose
// headers claim far more than the input holds. Run from this directory:
//
//	go run gen_checkpoint_corpus.go
package main

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"mcorr"
	"mcorr/internal/simulator"
	"mcorr/internal/timeseries"
	"mcorr/internal/wal"
)

const magic = "MCORCKP2"

func main() {
	full, _, err := simulator.Generate(simulator.GroupConfig{Name: "Z", Machines: 1, Days: 1, Seed: 5})
	if err != nil {
		log.Fatal(err)
	}
	history := timeseries.NewDataset()
	for _, id := range full.IDs()[:3] {
		history.Add(full.Get(id).Slice(timeseries.MonitoringStart, timeseries.MonitoringStart.Add(40*timeseries.SampleStep)))
	}
	dir, err := os.MkdirTemp("", "ckptcorpus")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	mcfg := mcorr.ManagerConfig{Model: mcorr.ModelConfig{Adaptive: true, Grid: mcorr.GridConfig{Units: 8, MaxIntervals: 3, MinIntervals: 2, EqualSplit: 3}}}
	dm, err := mcorr.NewDurableMonitor(history, mcfg, mcorr.DurabilityConfig{DataDir: dir, Fsync: mcorr.SyncNone},
		mcorr.WithDiagnosis(mcorr.DiagnosisConfig{}))
	if err != nil {
		log.Fatal(err)
	}
	if err := dm.Close(); err != nil {
		log.Fatal(err)
	}
	whole, err := os.ReadFile(filepath.Join(dir, "checkpoint"))
	if err != nil {
		log.Fatal(err)
	}
	flipped := bytes.Clone(whole)
	flipped[len(flipped)-200] ^= 0xff

	// stream builds a checkpoint by hand: the magic, a valid meta section,
	// then whatever records body appends — all with good CRCs and
	// sequence numbers, so only the decoders' own guards stand between a
	// lying header and an allocation.
	stream := func(body func(rw *wal.RecordWriter)) []byte {
		var buf bytes.Buffer
		buf.WriteString(magic)
		rw := wal.NewRecordWriter(&buf)
		var meta bytes.Buffer
		if err := gob.NewEncoder(&meta).Encode(struct{ WALSeq uint64 }{7}); err != nil {
			log.Fatal(err)
		}
		rw.Write([]byte("#meta"))
		rw.WriteBlob(meta.Bytes())
		body(rw)
		return buf.Bytes()
	}
	u64 := func(vs ...uint64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, v)
		}
		return b
	}
	hugeStore := stream(func(rw *wal.RecordWriter) {
		rw.Write([]byte("#store"))
		rw.Write(u64(2, 360e9, 0, 1<<62)) // 2^62 series
	})
	hugeSeries := stream(func(rw *wal.RecordWriter) {
		rw.Write([]byte("#store"))
		rw.Write(u64(2, 360e9, 0, 1))
		rec := u64(1 << 30) // 2^30 values, none of which follow
		for _, f := range []string{"m", "k", "\x01\x00\x00\x00\x0e\xc3\x60\xd2\x00\x00\x00\x00\x00\xff\xff"} {
			rec = binary.LittleEndian.AppendUint32(rec, uint32(len(f)))
			rec = append(rec, f...)
		}
		rw.Write(rec)
	})
	hugeBlob := stream(func(rw *wal.RecordWriter) {
		rw.Write([]byte("#store"))
		rw.Write(u64(2, 360e9, 0, 0))
		rw.Write([]byte("#diagnose"))
		rw.Write(u64(1 << 62)) // a 2^62-byte blob
	})

	write := func(name string, data []byte) {
		d := filepath.Join("testdata", "fuzz", "FuzzCheckpointRecords")
		if err := os.MkdirAll(d, 0o755); err != nil {
			log.Fatal(err)
		}
		content := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
		if err := os.WriteFile(filepath.Join(d, name), []byte(content), 0o644); err != nil {
			log.Fatal(err)
		}
	}
	write("seed_valid_checkpoint", whole)
	write("seed_no_end_section", whole[:len(whole)-20])
	write("seed_torn_mid_record", whole[:len(whole)*2/3])
	write("seed_flipped_model_byte", flipped)
	write("seed_magic_only", []byte(magic))
	write("seed_not_a_checkpoint", []byte("\x0c\xff\x81\x03\x01\x01\x0aCheckpoint"))
	write("seed_huge_series_count", hugeStore)
	write("seed_huge_value_count", hugeSeries)
	write("seed_huge_blob", hugeBlob)
	fmt.Println("wrote fuzz corpus to testdata/fuzz/FuzzCheckpointRecords/")
}
