package benchkit

import (
	"bytes"
	"fmt"

	"dbgc"
	"dbgc/internal/lidar"
	"dbgc/internal/stream"
)

// TemporalRow is one frame of the stream-extension experiment.
type TemporalRow struct {
	Seq       int
	Predicted bool
	Bytes     int
	Ratio     float64
}

// TemporalResult compares per-frame (all-I) and temporal (I+P) stream
// compression of a static capture — the stream composition the paper's
// introduction anticipates.
type TemporalResult struct {
	Frames        []TemporalRow
	PlainBytes    int
	TemporalBytes int
	// Gain is PlainBytes / TemporalBytes.
	Gain float64
}

// Temporal runs the stream extension experiment: a static scene captured
// repeatedly, compressed with and without P-frame prediction.
func Temporal(kind lidar.SceneKind, frames int, q float64) (TemporalResult, error) {
	if frames < 1 {
		return TemporalResult{}, fmt.Errorf("benchkit: frame count %d, need at least 1", frames)
	}
	scene, err := lidar.NewScene(kind, 31)
	if err != nil {
		return TemporalResult{}, err
	}
	cfg := lidar.HDL64E()
	capture := make([]dbgc.PointCloud, frames)
	for i := range capture {
		capture[i] = cfg.Simulate(scene, int64(i+1))
	}

	write := func(interval int) (int, []TemporalRow, error) {
		var buf bytes.Buffer
		w, err := stream.NewWriter(&buf, dbgc.DefaultOptions(q), cfg.FramesPerSecond)
		if err != nil {
			return 0, nil, err
		}
		if interval >= 2 {
			if err := w.EnableTemporal(interval); err != nil {
				return 0, nil, err
			}
		}
		var rows []TemporalRow
		for i, pc := range capture {
			fs, err := w.WriteFrame(pc, nil)
			if err != nil {
				return 0, nil, fmt.Errorf("frame %d: %w", i, err)
			}
			rows = append(rows, TemporalRow{Seq: i, Predicted: fs.Predicted, Bytes: fs.GeometryBytes, Ratio: fs.Ratio})
		}
		if err := w.Close(); err != nil {
			return 0, nil, err
		}
		return buf.Len(), rows, nil
	}

	var res TemporalResult
	plain, _, err := write(0)
	if err != nil {
		return res, err
	}
	temporal, rows, err := write(frames)
	if err != nil {
		return res, err
	}
	res.Frames = rows
	res.PlainBytes = plain
	res.TemporalBytes = temporal
	if temporal > 0 {
		res.Gain = float64(plain) / float64(temporal)
	}
	return res, nil
}
