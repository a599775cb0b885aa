//! The traced run's in-process replay of the kbpd traffic: the same
//! request lines go through `parse_request`, `Service::execute`,
//! `Service::define_response`, `kbp_lang::compile`, `Json::to_line` and
//! `check_implementation`, each under a span.

use kbp_core::{check_implementation, SyncSolver};
use kbp_service::json::Json;
use kbp_service::{find, parse_request, Request, Service, ServiceConfig};
use kbp_systems::{FnContext, Recall};

use crate::daemon::{Class, Exchange};
use crate::trace::Tracer;

#[derive(Debug, Default)]
pub struct Outcome {
    pub failed: u64,
    pub errors: Vec<String>,
    pub response_bytes: Vec<f64>,
    pub source_bytes: Vec<f64>,
}

impl Outcome {
    fn fail(&mut self, e: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(e);
        }
    }
}

/// Builds what a `check` job checks: the context and program, recall
/// and horizon of a registry scenario or of the current definition.
fn check_inputs(
    scenario: &str,
    horizon: Option<usize>,
    source: Option<&str>,
) -> Result<(FnContext, kbp_core::Kbp, Recall, usize), String> {
    if let Some(entry) = find(scenario) {
        let (ctx, kbp) = entry.build();
        return Ok((
            ctx,
            kbp,
            entry.recall,
            horizon.unwrap_or(entry.default_horizon),
        ));
    }
    let source = source.ok_or_else(|| format!("no source for {scenario}"))?;
    let compiled = kbp_lang::compile(source).map_err(|_| format!("{scenario} does not compile"))?;
    let (ctx, kbp) = compiled.instantiate();
    let default = usize::try_from(compiled.default_horizon()).map_err(|e| e.to_string())?;
    Ok((ctx, kbp, compiled.recall(), horizon.unwrap_or(default)))
}

/// Replays each connection's prefix (untimed: it only restores the
/// daemon's definitions and warm cache entries) and then its traced log on
/// one in-process service configured like the daemon.
pub fn run(prefixes: &[Vec<String>], logs: &[Vec<Exchange>], tracer: &mut Tracer) -> Outcome {
    let service = Service::new(ServiceConfig::new().workers(2).cache(true));
    let mut out = Outcome::default();
    for (prefix, log) in prefixes.iter().zip(logs) {
        let mut source: Option<String> = None;
        for line in prefix {
            match parse_request(line) {
                Ok(Request::Job(job)) => {
                    let _ = service.execute(&job);
                }
                Ok(Request::Define(d)) => {
                    source = Some(d.source.clone());
                    let _ = service.define_response(&d, "bench");
                }
                _ => out.fail(format!("bad replay prefix line: {line}")),
            }
        }
        for ex in log {
            // Spans of one request share its wire id with the request
            // span timed over TCP.
            let rid = ex.id;
            let class = ex.class.name();
            let parsed = tracer.span(&format!("service.parse.{class}"), rid, |_| {
                parse_request(&ex.line)
            });
            let request = match parsed {
                Ok(r) => r,
                Err(e) => {
                    out.fail(format!("replayed line does not parse: {e}"));
                    continue;
                }
            };
            let response: Json = match &request {
                Request::Job(job) => tracer.span(&format!("service.execute.{class}"), rid, |_| {
                    service.execute(job)
                }),
                Request::Define(d) => {
                    let compiled = tracer.span("lang.compile", rid, |_| {
                        kbp_lang::compile(&d.source).is_ok()
                    });
                    if !compiled {
                        out.fail("generated source does not compile".to_string());
                    }
                    out.source_bytes.push(d.source.len() as f64);
                    source = Some(d.source.clone());
                    tracer.span("service.define", rid, |_| {
                        service.define_response(d, "bench")
                    })
                }
                Request::Health { id } => tracer.span("service.execute.inline", rid, |_| {
                    service.health_response(*id)
                }),
                Request::Metrics { id } => tracer.span("service.execute.inline", rid, |_| {
                    service.metrics_response(*id, 0)
                }),
                Request::Stats { id } => service.stats_response(*id),
            };
            let text = tracer.span(&format!("service.render.{class}"), rid, |_| {
                response.to_line()
            });
            out.response_bytes.push(text.len() as f64);
            if ex.class == Class::Miss && text != ex.response {
                out.fail(format!(
                    "miss over TCP differs from in-process execute: {}",
                    &text[..text.len().min(120)]
                ));
            }
            if let (Class::Check, Request::Job(job)) = (ex.class, &request) {
                let checked = check_inputs(&job.scenario, job.horizon, source.as_deref()).and_then(
                    |(ctx, kbp, recall, horizon)| {
                        let solution = SyncSolver::new(&ctx, &kbp)
                            .horizon(horizon)
                            .recall(recall)
                            .solve()
                            .map_err(|e| e.to_string())?;
                        let report = tracer.span("core.check", rid, |_| {
                            check_implementation(&ctx, &kbp, solution.protocol(), recall, horizon)
                        });
                        match report {
                            Ok(r) if r.is_implementation() => Ok(()),
                            Ok(_) => Err("check_implementation found mismatches".to_string()),
                            Err(e) => Err(e.to_string()),
                        }
                    },
                );
                if let Err(e) = checked {
                    out.fail(format!("in-process check of {}: {e}", job.scenario));
                }
            }
        }
    }
    out
}
