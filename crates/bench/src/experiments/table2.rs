//! Table II: synergy between GBO and noise-aware weight training (NIA).
//!
//! Rows: Baseline, NIA, GBO, NIA + GBO, NIA + PLA — accuracy and average
//! pulse count per σ ∈ {10, 15, 20}.

use membit_core::{Experiment, GboConfig, GboResult, NiaConfig, Table2Row};

use crate::{search_epochs, Artifact, Opts, Result};

/// Paper Table II reference cells `(acc %, avg pulses)` per σ column.
const PAPER: &[(&str, [(f32, f32); 3])] = &[
    ("Baseline", [(83.94, 8.0), (62.27, 8.0), (31.46, 8.0)]),
    ("NIA", [(88.35, 8.0), (84.84, 8.0), (78.78, 8.0)]),
    ("GBO", [(86.36, 9.71), (76.35, 10.21), (46.33, 10.28)]),
    ("NIA + GBO", [(88.93, 9.71), (86.45, 10.24), (81.33, 10.28)]),
    ("NIA + PLA", [(88.91, 10.0), (85.17, 10.0), (80.29, 10.0)]),
];

/// The γ sweep each GBO cell picks its solution from.
const GAMMAS: [f32; 4] = [2e-3, 8e-4, 3e-4, 1e-4];

fn paper_cell(method: &str, col: usize) -> (f32, f32) {
    PAPER
        .iter()
        .find(|(m, _)| *m == method)
        .map(|(_, cells)| cells[col])
        .unwrap_or((f32::NAN, f32::NAN))
}

/// Runs the γ sweep and returns the GBO result nearest the paper's
/// Table II latency budget (≈ 10 average pulses). Solutions below the
/// 8-pulse baseline budget are penalized: the paper's Table II GBO rows
/// all sit at 9.7–10.3 average pulses, and (especially after NIA, whose
/// weights adapted to the p = 8 noise level) sub-baseline layers trade
/// away far more accuracy than the regularizer saves.
fn gbo_near_ten(exp: &mut Experiment, sigma: f32, opts: &Opts) -> Result<GboResult> {
    let score = |r: &GboResult| {
        let d = (r.avg_pulses() - 10.0).abs();
        if r.avg_pulses() < 9.0 {
            d + 100.0
        } else {
            d
        }
    };
    let mut best: Option<GboResult> = None;
    for gamma in GAMMAS {
        let mut cfg = GboConfig::paper(gamma, opts.seed);
        cfg.epochs = search_epochs(opts.scale);
        let result = exp.run_gbo(sigma, cfg)?;
        if best.as_ref().is_none_or(|b| score(&result) < score(b)) {
            best = Some(result);
        }
    }
    best.ok_or_else(|| "empty γ grid".into())
}

/// Writes `table2.csv`.
///
/// # Errors
///
/// Propagates evaluation, search and fine-tuning errors.
pub fn run(opts: &Opts, exp: &mut Experiment) -> Result<Vec<Artifact>> {
    let sigmas = [10.0f32, 15.0, 20.0];
    let layers = 7usize;
    let mut rows: Vec<Table2Row> = ["Baseline", "NIA", "GBO", "NIA + GBO", "NIA + PLA"]
        .into_iter()
        .map(|method| Table2Row {
            method: method.into(),
            cells: Vec::new(),
        })
        .collect();

    for &sigma in &sigmas {
        println!("# σ = {sigma}");
        // Baseline and plain GBO run on the clean-pretrained weights.
        let mut base = exp.fork();
        let acc_baseline = base.eval_pla(sigma, &[8; 7])?;
        rows[0].cells.push((acc_baseline, 8.0));

        let gbo = gbo_near_ten(&mut base, sigma, opts)?;
        println!("#   GBO pulses: {:?}", gbo.selected_pulses);
        let acc_gbo = base.eval_pla(sigma, &gbo.selected_pulses)?;
        rows[2].cells.push((acc_gbo, gbo.avg_pulses()));

        // NIA variants fine-tune a fork of the weights at this σ.
        let mut nia = exp.fork();
        nia.run_nia(sigma, &NiaConfig::new(search_epochs(opts.scale), opts.seed))?;
        let acc_nia = nia.eval_pla(sigma, &[8; 7])?;
        rows[1].cells.push((acc_nia, 8.0));

        // NIA + GBO: search the encoding on the NIA-adapted weights.
        let nia_gbo = gbo_near_ten(&mut nia, sigma, opts)?;
        println!("#   NIA+GBO pulses: {:?}", nia_gbo.selected_pulses);
        let acc_nia_gbo = nia.eval_pla(sigma, &nia_gbo.selected_pulses)?;
        rows[3].cells.push((acc_nia_gbo, nia_gbo.avg_pulses()));

        // NIA + PLA: uniform 10 pulses on the NIA weights.
        let acc_nia_pla = nia.eval_pla(sigma, &vec![10; layers])?;
        rows[4].cells.push((acc_nia_pla, 10.0));
    }

    println!(
        "{:<12} | {:^21} | {:^21} | {:^21}",
        "Method", "σ = 10", "σ = 15", "σ = 20"
    );
    println!(
        "{:<12} | {:^21} | {:^21} | {:^21}",
        "", "ours (paper)", "ours (paper)", "ours (paper)"
    );
    let mut csv_rows = Vec::new();
    for row in &rows {
        let cells: Vec<String> = row
            .cells
            .iter()
            .enumerate()
            .map(|(col, &(acc, pulses))| {
                let (p_acc, p_pulses) = paper_cell(&row.method, col);
                format!("{acc:.1}/{pulses:.1} ({p_acc:.1}/{p_pulses:.1})")
            })
            .collect();
        println!(
            "{:<12} | {:>21} | {:>21} | {:>21}",
            row.method, cells[0], cells[1], cells[2]
        );
        let mut csv = vec![row.method.clone()];
        for &(acc, pulses) in &row.cells {
            csv.push(format!("{acc:.2}"));
            csv.push(format!("{pulses:.2}"));
        }
        csv_rows.push(csv);
    }

    println!("Shape checks:");
    for (col, &sigma) in sigmas.iter().enumerate() {
        let nia_gbo = rows[3].cells[col].0;
        let nia = rows[1].cells[col].0;
        let gbo = rows[2].cells[col].0;
        let baseline = rows[0].cells[col].0;
        println!(
            "  σ={sigma}: NIA+GBO ({nia_gbo:.1}) ≥ max(NIA {nia:.1}, GBO {gbo:.1}) − 1: {}",
            nia_gbo + 1.0 >= nia.max(gbo)
        );
        println!(
            "  σ={sigma}: every method beats Baseline ({baseline:.1}): {}",
            [nia, gbo, nia_gbo].iter().all(|&a| a + 1.0 >= baseline)
        );
    }

    Ok(vec![Artifact::csv(
        "table2.csv",
        &[
            "method",
            "acc_s10",
            "pulses_s10",
            "acc_s15",
            "pulses_s15",
            "acc_s20",
            "pulses_s20",
        ],
        &csv_rows,
    )])
}
