package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// TestRun is the one table for the five subcommands. A row without wantErr
// is a pinned invocation: its stdout must equal testdata/<name>.txt byte
// for byte. Those files are the stdout of the five binaries this command
// replaced (countersim, treeviz, tracedag, lowerbound, experiments at
// PR 17), each run with the row's flags, so they also pin that nothing
// changed in the move. A row with wantErr must fail with the one-line
// `paper <sub>: …` error containing it and print nothing. After an
// intentional output change, refresh one file with
//
//	go run ./cmd/paper <args> > cmd/paper/testdata/<name>.txt
var runTable = []struct {
	name    string
	args    string
	golden  string // "": testdata/<name>.txt
	wantErr string
}{
	{name: "profile_default", args: "profile"},
	{name: "profile_central", args: "profile -algo central -n 64"},
	{name: "profile_random", args: "profile -algo ctree -n 81 -order random -seed 7 -top 5"},
	{name: "profile_reverse_nocheck", args: "profile -algo central -n 8 -order reverse -buckets 4 -top 3 -check=false"},
	{name: "profile_grid", args: "profile -algo quorum-grid -n 36 -top 2"},
	// The Hot Spot check past 127 processors.
	{name: "profile_ctree_1024", args: "profile -algo ctree -n 1024"},
	{name: "profile_list", args: "profile -list"},
	{name: "tree_k2", args: "tree -k 2"},
	{name: "tree_k2_run", args: "tree -k 2 -run"},
	{name: "tree_k3_run", args: "tree -k 3 -run"},
	{name: "tree_k3_show2", args: "tree -k 3 -show 2"},
	{name: "dag_default", args: "dag"},
	{name: "dag_ctree_warm", args: "dag -algo ctree -n 8 -proc 4 -warmup 3"},
	{name: "dag_grid_dot", args: "dag -algo quorum-grid -n 36 -proc 17 -format dot"},
	{name: "dag_central_ascii", args: "dag -algo central -n 4 -proc 2 -format ascii"},
	{name: "dag_central_list", args: "dag -algo central -n 4 -proc 2 -warmup 3 -format list"},
	{name: "bound_table", args: "bound"},
	{name: "bound_n", args: "bound -n 1000000"},
	{name: "bound_adv_default", args: "bound -adversary"},
	{name: "bound_adv_central_trace", args: "bound -adversary -algo central -n 8 -trace"},
	{name: "bound_adv_ctree_trace", args: "bound -adversary -algo ctree -n 81 -trace"},
	{name: "bound_adv_sampled", args: "bound -adversary -algo central -n 16 -sample 4"},
	{name: "bound_adv_schedules", args: "bound -adversary -algo ctree -n 8 -schedules 3"},
	// q's per-step lists under schedule exploration and on a Θ(n)-list row.
	{name: "bound_adv_combining_schedules_trace", args: "bound -adversary -algo combining -n 8 -schedules 3 -trace"},
	{name: "bound_adv_quorum_majority_trace", args: "bound -adversary -algo quorum-majority -n 8 -trace"},
	{name: "exp_list", args: "exp -list"},
	{name: "exp_e3_quick", args: "exp -exp E3 -quick"},
	{name: "exp_e14_lower", args: "exp -exp e14"},
	{name: "exp_e1", args: "exp -exp E1"},
	// The same bytes internal/experiments pins for RunAll.
	{name: "exp_all_quick", args: "exp -all -quick", golden: "../../internal/experiments/testdata/all_quick.txt"},

	// The shared error path.
	{name: "no_subcommand", args: "", wantErr: "paper: need a subcommand: exp, profile, tree, dag, bound"},
	{name: "unknown_subcommand", args: "countersim -n 8", wantErr: `paper: unknown subcommand "countersim"`},
	{name: "profile_bad_flag", args: "profile -definitely-not-a-flag", wantErr: "paper profile: flag provided but not defined"},
	{name: "tree_stray_argument", args: "tree 3", wantErr: `paper tree: unexpected argument "3"`},
	{name: "profile_unknown_algo", args: "profile -algo nope", wantErr: `paper profile: registry: unknown algorithm "nope"`},
	{name: "profile_unknown_order", args: "profile -order zigzag -n 8", wantErr: `paper profile: unknown order "zigzag"`},
	{name: "dag_unknown_algo", args: "dag -algo nope", wantErr: "paper dag: registry: unknown algorithm"},
	{name: "dag_proc_out_of_range", args: "dag -n 8 -proc 9", wantErr: "paper dag: processor 9 out of range 1..8"},
	{name: "bound_unknown_algo", args: "bound -adversary -algo nope", wantErr: "paper bound: registry: unknown algorithm"},
	{name: "exp_unknown", args: "exp -exp E42", wantErr: `paper exp: unknown experiment "E42"`},
	{name: "exp_no_action", args: "exp", wantErr: "paper exp: nothing to do"},

	// What the old binaries crashed on (a stack trace, exit 2).
	{name: "profile_zero_buckets", args: "profile -buckets 0", wantErr: "paper profile: need -n >= 1, -top >= 0 and -buckets >= 1"},
	{name: "profile_negative_top", args: "profile -top -1", wantErr: "paper profile: need -n >= 1, -top >= 0 and -buckets >= 1"},
	{name: "profile_negative_n", args: "profile -algo central -n -5", wantErr: "paper profile: need -n >= 1"},
	{name: "tree_k0", args: "tree -k 0", wantErr: "paper tree: need -k in 2..8"},
	{name: "tree_k1", args: "tree -k 1", wantErr: "paper tree: need -k in 2..8"},
	{name: "tree_k9", args: "tree -k 9", wantErr: "paper tree: need -k in 2..8"},
	{name: "bound_adv_negative_n", args: "bound -adversary -n -3", wantErr: "paper bound: need -n, -sample and -schedules >= 0"},

	// What the old binaries silently ignored (exit 0).
	{name: "dag_unknown_format", args: "dag -format json", wantErr: `paper dag: unknown format "json"`},
	{name: "bound_negative_n", args: "bound -n -3", wantErr: "paper bound: need -n, -sample and -schedules >= 0"},
	{name: "bound_trace_alone", args: "bound -trace", wantErr: "paper bound: -trace only applies with -adversary"},
	{name: "bound_algo_alone", args: "bound -algo ctree", wantErr: "paper bound: -algo only applies with -adversary"},
	{name: "bound_sample_alone", args: "bound -n 81 -sample 4", wantErr: "paper bound: -sample only applies with -adversary"},
	{name: "bound_schedules_alone", args: "bound -schedules 3", wantErr: "paper bound: -schedules only applies with -adversary"},
	{name: "bound_trace_sampled", args: "bound -adversary -sample 4 -trace", wantErr: "paper bound: -trace needs the full adversary"},
	{name: "exp_id_and_all", args: "exp -exp E1 -all", wantErr: "paper exp: -all -exp: pass exactly one of -exp, -all, -list"},
	{name: "exp_list_and_quick", args: "exp -list -quick", wantErr: "paper exp: -list -quick: pass exactly one of -exp, -all, -list"},
	{name: "profile_list_and_n", args: "profile -list -n 8", wantErr: "paper profile: -list -n: -list takes no other flag"},
	{name: "profile_seed_unused", args: "profile -seed 7", wantErr: "paper profile: -seed only applies to -order random"},
}

func TestRun(t *testing.T) {
	for _, row := range runTable {
		t.Run(row.name, func(t *testing.T) {
			var out bytes.Buffer
			err := run(strings.Fields(row.args), &out)
			if row.wantErr != "" {
				switch {
				case err == nil:
					t.Fatalf("paper %s: accepted, want error %q; printed:\n%s", row.args, row.wantErr, out.String())
				case !strings.HasPrefix(err.Error(), row.wantErr) || strings.Contains(err.Error(), "\n"):
					t.Fatalf("paper %s: error %q, want one line starting %q", row.args, err, row.wantErr)
				case out.Len() > 0:
					t.Fatalf("paper %s: failed after printing:\n%s", row.args, out.String())
				}
				return
			}
			if err != nil {
				t.Fatalf("paper %s: %v", row.args, err)
			}
			golden := row.golden
			if golden == "" {
				golden = "testdata/" + row.name + ".txt"
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out.Bytes(), want) {
				t.Errorf("paper %s differs from %s:\n%s", row.args, golden, out.String())
			}
		})
	}
}
