package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"

	"vapro"
)

// reportFlags are the report outputs `vapro` and `vapro analyze`
// share: diagnosis on stdout and the artifact files.
type reportFlags struct {
	diagnose                  *bool
	html, json, png, svg, dot *string
}

// addReportFlags registers the report outputs on fs; jsonName names the
// JSON summary flag, which `vapro analyze` calls -report-json because
// its -json already means window rows on stdout.
func addReportFlags(fs *flag.FlagSet, jsonName string) *reportFlags {
	return &reportFlags{
		diagnose: fs.Bool("diagnose", false, "run progressive diagnosis on detected variance"),
		html:     fs.String("html", "", "write a full HTML report to this file"),
		json:     fs.String(jsonName, "", "write a machine-readable JSON summary to this file"),
		png:      fs.String("png", "", "write the computation heat map as PNG to this file"),
		svg:      fs.String("svg", "", "write the computation heat map as SVG to this file"),
		dot:      fs.String("dot", "", "write the State Transition Graph as Graphviz dot to this file"),
	}
}

// requested reports whether an output beyond the summary was asked for.
func (rf *reportFlags) requested() bool {
	return *rf.diagnose || *rf.html != "" || *rf.json != "" || *rf.png != "" || *rf.svg != "" || *rf.dot != ""
}

// write prints the heat maps, writes the requested artifacts (each
// announced by a "wrote" line) and then the diagnosis, stopping at the
// first artifact that cannot be written.
func (rf *reportFlags) write(res *vapro.Result) error {
	for _, class := range []vapro.Class{vapro.Computation, vapro.Communication, vapro.IO} {
		if res.Detection.Maps[class] == nil {
			continue
		}
		fmt.Println()
		fmt.Print(vapro.RenderHeatMap(res, class))
	}
	artifacts := []struct {
		path   string
		render func() ([]byte, error)
	}{
		{*rf.json, func() ([]byte, error) { return vapro.ReportJSON(res, true) }},
		{*rf.png, func() ([]byte, error) { return pngBytes(res) }},
		{*rf.html, func() ([]byte, error) { return []byte(vapro.ReportHTML(res)), nil }},
		{*rf.svg, func() ([]byte, error) { return []byte(vapro.RenderHeatMapSVG(res, vapro.Computation)), nil }},
		{*rf.dot, func() ([]byte, error) { return []byte(vapro.RenderSTG(res)), nil }},
	}
	for _, a := range artifacts {
		if a.path == "" {
			continue
		}
		data, err := a.render()
		if err == nil {
			err = os.WriteFile(a.path, data, 0o644)
		}
		if err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", a.path)
	}
	if *rf.diagnose {
		for _, class := range []vapro.Class{vapro.Computation, vapro.Communication, vapro.IO} {
			rep := res.DiagnoseTop(class, vapro.DefaultDiagnoseOptions())
			if rep == nil || rep.AbnormalFrags == 0 {
				continue
			}
			fmt.Printf("\nprogressive diagnosis (%s):\n%s", class, rep.String())
		}
	}
	return nil
}

func pngBytes(res *vapro.Result) ([]byte, error) {
	var buf bytes.Buffer
	err := vapro.WriteHeatMapPNG(&buf, res, vapro.Computation)
	return buf.Bytes(), err
}
