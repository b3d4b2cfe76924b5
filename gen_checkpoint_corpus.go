//go:build ignore

// gen_checkpoint_corpus regenerates the checked-in seed corpus of
// FuzzCheckpointRecords under testdata/fuzz: a real (tiny) checkpoint with
// valid CRCs, torn and damaged variants of it, hand-built streams whose
// headers claim far more than the input holds, and copies of the real one
// whose first model record contradicts itself. Run from this directory:
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
	"mcorr/internal/manager"
	"mcorr/internal/simulator"
	"mcorr/internal/timeseries"
	"mcorr/internal/wal"
)

const magic = manager.CheckpointMagic

// Where core's model record keeps what the hostile seeds change. The
// record layout is core's own; a header of another size stops the run
// instead of patching the wrong field.
const (
	modelHeaderSize = 228
	modelHeaderNX   = 4   // uint32, NY follows
	modelHeaderPrev = 142 // int64
)

// payloads splits the record stream after the magic into its payloads.
func payloads(data []byte) [][]byte {
	var out [][]byte
	for data = data[len(magic):]; len(data) > 0; {
		n := int(binary.BigEndian.Uint32(data))
		out = append(out, data[16:16+n])
		data = data[16+n:]
	}
	return out
}

// hostileModel returns whole with the first model of its manager section
// changed by edit, every record re-framed with a good CRC. edit gets the
// model's header record and its matrix index as uint32 words (nx0, ny0,
// growths, four words a growth, then the stored row indices) and returns
// the index to write.
func hostileModel(whole []byte, edit func(hdr []byte, index []uint32, rows int) []uint32) []byte {
	recs := payloads(whole)
	at := 0
	for string(recs[at]) != "#manager" {
		at++
	}
	// #manager, the manager header blob (length + body), then the model:
	// header, x edges, y edges, index blob (length + body), rows.
	hdr, index := bytes.Clone(recs[at+3]), recs[at+7]
	if len(hdr) != modelHeaderSize {
		log.Fatalf("model header is %d bytes, not %d: update the offsets above", len(hdr), modelHeaderSize)
	}
	words := make([]uint32, len(index)/4)
	for k := range words {
		words[k] = binary.LittleEndian.Uint32(index[4*k:])
	}
	rows := 3 + 4*int(words[2])
	if len(words) < rows+2 {
		log.Fatalf("first model stores %d rows; the seeds need two", len(words)-rows)
	}
	words = edit(hdr, words, rows)
	var blob []byte
	for _, w := range words {
		blob = binary.LittleEndian.AppendUint32(blob, w)
	}
	var buf bytes.Buffer
	buf.WriteString(magic)
	rw := wal.NewRecordWriter(&buf)
	for k, rec := range recs {
		switch k {
		case at + 3:
			rw.Write(hdr)
		case at + 6:
			rw.WriteBlob(blob)
		case at + 7:
		default:
			rw.Write(rec)
		}
	}
	return buf.Bytes()
}

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

	rowCount := hostileModel(whole, func(hdr []byte, index []uint32, rows int) []uint32 {
		n := binary.LittleEndian.Uint32(hdr[modelHeaderNX:]) * binary.LittleEndian.Uint32(hdr[modelHeaderNX+4:])
		index = index[:rows]
		for i := uint32(0); i <= n; i++ { // one row more than the matrix has cells
			index = append(index, i)
		}
		return index
	})
	descending := hostileModel(whole, func(_ []byte, index []uint32, rows int) []uint32 {
		index[rows], index[rows+1] = index[rows+1], index[rows]
		return index
	})
	epochs := hostileModel(whole, func(_ []byte, index []uint32, _ int) []uint32 {
		index[0]++ // initial dims + growths no longer add up to NX×NY
		return index
	})
	prev := hostileModel(whole, func(hdr []byte, index []uint32, _ int) []uint32 {
		binary.LittleEndian.PutUint64(hdr[modelHeaderPrev:], 1<<40)
		return index
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
	write("seed_model_row_count", rowCount)
	write("seed_model_descending_rows", descending)
	write("seed_model_epochs_do_not_add_up", epochs)
	write("seed_model_prev_out_of_range", prev)
	fmt.Println("wrote fuzz corpus to testdata/fuzz/FuzzCheckpointRecords/")
}
