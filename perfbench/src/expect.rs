//! The checked-in expected verdicts (`data/`) and their parsers.

use gact_scenarios::TaskSpec;

/// A `solve_stream` verdict as written in `data/solve_grid.txt`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Expected {
    /// A connectivity obstruction (`unsolvable`).
    Unsolvable,
    /// A map first found at this depth (`solvable@<depth>`).
    SolvableAt(usize),
    /// No map up to the bound (`unknown`).
    Unknown,
}

impl Expected {
    /// Whether an engine reply of this kind and solvable depth matches.
    pub fn matches(self, kind: &str, depth: Option<usize>) -> bool {
        match self {
            Expected::Unsolvable => kind == "unsolvable",
            Expected::SolvableAt(d) => kind == "solvable" && depth == Some(d),
            Expected::Unknown => kind == "unknown",
        }
    }
}

/// One spec of the `solve_stream` grid.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GridSpec {
    /// The task.
    pub task: TaskSpec,
    /// The search bound.
    pub max_depth: usize,
    /// The closed-form verdict.
    pub expect: Expected,
}

/// One cell of the expected `all` sweep.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExpectedCell {
    /// Display label of the task (`TaskSpec::label`).
    pub task: String,
    /// Display label of the model.
    pub model: String,
    /// Search bound.
    pub max_depth: usize,
    /// Verdict kind.
    pub verdict: String,
    /// Verdict detail line.
    pub detail: String,
}

/// The expected reply of each `certify` request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CertifyExpect {
    /// Stabilization-band sizes of the witness.
    pub bands: Vec<usize>,
    /// Enumerated model runs verified.
    pub runs: usize,
    /// Property violations over them.
    pub violations: usize,
}

/// Lines that carry data: comments (`#`) and blank lines dropped.
fn data_lines(text: &str) -> impl Iterator<Item = (usize, &str)> {
    text.lines()
        .enumerate()
        .map(|(i, l)| (i + 1, l.trim_end()))
        .filter(|(_, l)| !l.trim().is_empty() && !l.trim_start().starts_with('#'))
}

fn parse_usize(s: &str, what: &str, line: usize) -> Result<usize, String> {
    s.parse()
        .map_err(|_| format!("line {line}: {what} `{s}` is not a whole number"))
}

/// Parses `data/solve_grid.txt`.
pub fn parse_grid(text: &str) -> Result<Vec<GridSpec>, String> {
    let mut out = Vec::new();
    for (line, l) in data_lines(text) {
        let (lhs, verdict) = l
            .split_once("=>")
            .ok_or_else(|| format!("line {line}: missing `=>`"))?;
        let mut words: Vec<&str> = lhs.split_whitespace().collect();
        let depth = words
            .pop()
            .and_then(|w| w.strip_prefix('@'))
            .ok_or_else(|| format!("line {line}: missing `@<max_depth>`"))?;
        let max_depth = parse_usize(depth, "max_depth", line)?;
        let (&kind, params) = words
            .split_first()
            .ok_or_else(|| format!("line {line}: missing task"))?;
        let param = |key: &str| -> Result<usize, String> {
            let value = params
                .iter()
                .find_map(|p| p.strip_prefix(key).and_then(|r| r.strip_prefix('=')))
                .ok_or_else(|| format!("line {line}: `{kind}` needs `{key}=`"))?;
            parse_usize(value, key, line)
        };
        let task = match kind {
            "consensus" => TaskSpec::Consensus {
                n: param("n")?,
                n_values: param("v")?,
            },
            "set-agreement" => TaskSpec::SetAgreement {
                n: param("n")?,
                n_values: param("v")?,
                k: param("k")?,
            },
            "chr" => TaskSpec::FullSubdivision {
                n: param("n")?,
                depth: param("k")?,
            },
            "lord" => TaskSpec::TotalOrder { n: param("n")? },
            "lt" => TaskSpec::Lt {
                n: param("n")?,
                t: param("t")?,
            },
            other => return Err(format!("line {line}: unknown task `{other}`")),
        };
        let verdict = verdict.trim();
        let expect = match verdict {
            "unsolvable" => Expected::Unsolvable,
            "unknown" => Expected::Unknown,
            v => match v.strip_prefix("solvable@") {
                Some(d) => Expected::SolvableAt(parse_usize(d, "solvable depth", line)?),
                None => return Err(format!("line {line}: unknown verdict `{v}`")),
            },
        };
        out.push(GridSpec {
            task,
            max_depth,
            expect,
        });
    }
    Ok(out)
}

/// Parses `data/sweep_all.tsv`.
pub fn parse_sweep(text: &str) -> Result<Vec<ExpectedCell>, String> {
    data_lines(text)
        .map(|(line, l)| {
            let f: Vec<&str> = l.split('\t').collect();
            let [_family, task, model, depth, verdict, detail] = f[..] else {
                return Err(format!("line {line}: expected 6 tab-separated fields"));
            };
            Ok(ExpectedCell {
                task: task.to_string(),
                model: model.to_string(),
                max_depth: parse_usize(depth, "max_depth", line)?,
                verdict: verdict.to_string(),
                detail: detail.to_string(),
            })
        })
        .collect()
}

/// Parses `data/certify.txt`.
pub fn parse_certify(text: &str) -> Result<CertifyExpect, String> {
    let (mut bands, mut runs, mut violations) = (None, None, None);
    for (line, l) in data_lines(text) {
        let mut words = l.split_whitespace();
        let key = words.next().unwrap_or_default();
        let values = words
            .map(|w| parse_usize(w, key, line))
            .collect::<Result<Vec<_>, _>>()?;
        match (key, values.as_slice()) {
            ("bands", [_, ..]) => bands = Some(values),
            ("runs", [v]) => runs = Some(*v),
            ("violations", [v]) => violations = Some(*v),
            _ => return Err(format!("line {line}: cannot read `{l}`")),
        }
    }
    Ok(CertifyExpect {
        bands: bands.ok_or("missing `bands`")?,
        runs: runs.ok_or("missing `runs`")?,
        violations: violations.ok_or("missing `violations`")?,
    })
}

/// The checked-in `solve_stream` grid.
pub fn grid() -> Vec<GridSpec> {
    parse_grid(include_str!("../data/solve_grid.txt")).expect("data/solve_grid.txt parses")
}

/// The checked-in `all` sweep verdicts.
pub fn sweep() -> Vec<ExpectedCell> {
    parse_sweep(include_str!("../data/sweep_all.tsv")).expect("data/sweep_all.tsv parses")
}

/// The checked-in `certify` reply.
pub fn certify() -> CertifyExpect {
    parse_certify(include_str!("../data/certify.txt")).expect("data/certify.txt parses")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_lines_parse_into_specs_and_verdicts() {
        let g = parse_grid(
            "# comment\n\nconsensus n=1 v=2 @2 => unsolvable\n\
             set-agreement n=2 v=3 k=2 @0 => unknown\nchr n=2 k=1 @1 => solvable@1\n\
             lt n=3 t=2 @2 => unknown\nlord n=1 @2 => unsolvable\n",
        )
        .unwrap();
        assert_eq!(g.len(), 5);
        assert_eq!(g[0].task, TaskSpec::Consensus { n: 1, n_values: 2 });
        assert_eq!(g[0].expect, Expected::Unsolvable);
        assert_eq!(
            g[1].task,
            TaskSpec::SetAgreement {
                n: 2,
                n_values: 3,
                k: 2
            }
        );
        assert_eq!(g[1].max_depth, 0);
        assert_eq!(g[2].task, TaskSpec::FullSubdivision { n: 2, depth: 1 });
        assert_eq!(g[2].expect, Expected::SolvableAt(1));
        assert_eq!(g[3].task, TaskSpec::Lt { n: 3, t: 2 });
        assert_eq!(g[4].task, TaskSpec::TotalOrder { n: 1 });
    }

    #[test]
    fn grid_errors_name_the_line() {
        for bad in [
            "consensus n=1 v=2 => unsolvable",
            "consensus n=1 @2 => unsolvable",
            "chr n=1 k=1 @1 => solvable@x",
            "chr n=1 k=1 @1 => maybe",
            "pizza n=1 @1 => unknown",
            "chr n=1 k=1 @1",
        ] {
            let err = parse_grid(&format!("# header\n{bad}\n")).unwrap_err();
            assert!(err.starts_with("line 2:"), "{bad}: {err}");
        }
    }

    #[test]
    fn verdicts_match_kind_and_depth() {
        assert!(Expected::SolvableAt(2).matches("solvable", Some(2)));
        assert!(!Expected::SolvableAt(2).matches("solvable", Some(1)));
        assert!(!Expected::Unknown.matches("unsolvable", None));
        assert!(Expected::Unsolvable.matches("unsolvable", None));
    }

    #[test]
    fn sweep_and_certify_lines_parse() {
        let cells =
            parse_sweep("# h\nwf\tL_1(n=2)\tRes_1(3)\t2\tsolvable\tGACT certificate\n").unwrap();
        assert_eq!(cells[0].model, "Res_1(3)");
        assert_eq!(cells[0].max_depth, 2);
        assert!(parse_sweep("wf\tonly three\tfields\n").is_err());
        let c = parse_certify("bands 1 2 3\nruns 7\nviolations 0\n").unwrap();
        assert_eq!(c.bands, vec![1, 2, 3]);
        assert!(parse_certify("bands 1\nruns 7\n").is_err());
        assert!(parse_certify("bands 1\nruns 7 8\nviolations 0\n").is_err());
    }

    #[test]
    fn checked_in_data_is_complete() {
        let g = grid();
        assert_eq!(g.len(), 26);
        for spec in &g {
            spec.task.validate().expect("grid specs are valid");
        }
        assert_eq!(sweep().len(), 49);
        assert_eq!(certify().bands, vec![475, 714, 2118, 6330]);
    }
}
