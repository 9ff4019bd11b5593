//! The Appendix-A deployment loop over real sockets: iCrowd runs as a
//! server answering ExternalQuestion callbacks, and simulated workers
//! reach it over TCP, exactly like AMT callbacks hitting the paper's
//! web server. Serves Table 1's twelve microtasks on an ephemeral
//! loopback port, drives them with the load generator, and prints what
//! the campaign collected.
//!
//! ```sh
//! cargo run --release --example amt_server
//! ```

use icrowd::AssignStrategy;
use icrowd_serve::{run_loadgen, serve, CampaignEngine, LoadgenConfig, ServeConfig};
use icrowd_sim::campaign::{Approach, CampaignConfig, MetricChoice};
use icrowd_sim::datasets::table1::table1;

fn main() {
    let dataset = table1();
    let mut config = CampaignConfig {
        seed: 11,
        metric: MetricChoice::Jaccard,
        ..Default::default()
    };
    config.icrowd.similarity_threshold = 0.5;
    config.icrowd.warmup.num_qualification = 3;
    let approach = Approach::ICrowd(AssignStrategy::Adapt);

    // Offline work (similarity graph, qualification tasks) runs here,
    // before the server takes its first request.
    let engine = CampaignEngine::new("table1", dataset.clone(), approach, config);
    let server = serve(engine, &ServeConfig::default()).expect("bind a loopback port");
    println!(
        "iCrowd serving ExternalQuestion requests on {}",
        server.addr()
    );

    // Five client threads play the simulated crowd; once the campaign
    // ends, the generator fetches the labels and sends SHUTDOWN.
    let report = run_loadgen(&LoadgenConfig {
        addr: server.addr().to_string(),
        workers: 5,
        ..Default::default()
    })
    .expect("the load generator drives the campaign to its end");
    println!(
        "{} requests from {} workers; p50 request {:.0} us, p50 submit {:.0} us",
        report.requests, report.roster, report.request_p50_us, report.submit_p50_us
    );

    let result = server.join();
    println!(
        "collected {} answers; campaign complete: {}; accounting balanced: {}",
        result.answers,
        result.completed,
        result.accounting.balanced()
    );
    let correct = result
        .labels
        .iter()
        .filter(|(task, label)| dataset.tasks[*task].ground_truth == Some(*label))
        .count();
    println!(
        "final accuracy: {correct}/{} microtasks",
        dataset.tasks.len()
    );
}
