//! Parsers for the lines `watch`, `serve` and `diff` print.

use std::net::SocketAddr;

/// The fields of one `epoch` status line.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochLine {
    pub epoch: u64,
    /// Window start and end, seconds of log time (one decimal).
    pub window: (f64, f64),
    pub flows: usize,
    pub changes: usize,
}

/// The fixed-width head of an `epoch` line, up to and including the
/// change count — the part a reference run reproduces exactly.
pub fn epoch_head(epoch: u64, window: (f64, f64), flows: usize, changes: usize) -> String {
    format!(
        "epoch {:>3}  [{:>7.1}s .. {:>7.1}s]  {:>5} flows  {:>3} changes",
        epoch, window.0, window.1, flows, changes
    )
}

/// Parses `epoch   7  [   10.0s ..    40.0s]   1234 flows   12 changes  healthy`.
pub fn parse_epoch(line: &str) -> Option<EpochLine> {
    let rest = line.strip_prefix("epoch ")?;
    let (epoch, rest) = rest.trim_start().split_once(' ')?;
    let rest = rest.trim_start().strip_prefix('[')?;
    let (start, rest) = rest.split_once("s ..")?;
    let (end, rest) = rest.split_once("s]")?;
    let mut words = rest.split_whitespace();
    let flows = words.next()?.parse().ok()?;
    (words.next()? == "flows").then_some(())?;
    let changes = words.next()?.parse().ok()?;
    (words.next()? == "changes").then_some(())?;
    Some(EpochLine {
        epoch: epoch.parse().ok()?,
        window: (start.trim().parse().ok()?, end.trim().parse().ok()?),
        flows,
        changes,
    })
}

/// Parses `listening on 127.0.0.1:40123 for 2 publisher(s)`.
pub fn parse_listening(line: &str) -> Option<(SocketAddr, usize)> {
    let rest = line.strip_prefix("listening on ")?;
    let (addr, rest) = rest.split_once(" for ")?;
    let (n, _) = rest.split_once(' ')?;
    Some((addr.parse().ok()?, n.parse().ok()?))
}

/// Parses `baseline: 403589 events, 97635 flows, 9 groups` into
/// `(events, flows, groups)`.
pub fn parse_baseline(line: &str) -> Option<(usize, usize, usize)> {
    let rest = line.strip_prefix("baseline: ")?;
    let mut nums = rest
        .split(", ")
        .map(|part| part.split_once(' ').and_then(|(n, _)| n.parse().ok()));
    Some((nums.next()??, nums.next()??, nums.next()??))
}

/// Parses the `stats: ingest N frames decoded, M skipped (...)` line
/// into `(decoded, skipped)`.
pub fn parse_ingest(line: &str) -> Option<(u64, u64)> {
    let rest = line.strip_prefix("stats: ingest ")?;
    let (decoded, rest) = rest.split_once(" frames decoded, ")?;
    let (skipped, _) = rest.split_once(" skipped")?;
    Some((decoded.parse().ok()?, skipped.parse().ok()?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_lines_round_trip_through_the_head() {
        let line = "epoch  12  [   31.0s ..    61.0s]   3245 flows   35 changes  ALARM [x] suspects: host 10.1.0.6(3)";
        let parsed = parse_epoch(line).unwrap();
        assert_eq!(
            parsed,
            EpochLine {
                epoch: 12,
                window: (31.0, 61.0),
                flows: 3245,
                changes: 35
            }
        );
        assert!(line.starts_with(&epoch_head(12, (31.0, 61.0), 3245, 35)));
        let wide = "epoch 130  [  301.0s ..   331.0s]      0 flows    0 changes  healthy";
        assert_eq!(parse_epoch(wide).unwrap().epoch, 130);
        assert_eq!(parse_epoch(wide).unwrap().flows, 0);
    }

    #[test]
    fn non_epoch_lines_are_rejected() {
        assert!(parse_epoch("latency epoch   0  retire_us 1").is_none());
        assert!(parse_epoch("epoch x  [1.0s .. 2.0s] 1 flows 1 changes").is_none());
        assert!(parse_epoch("epoch 1  [1.0s .. 2.0s] 1 flow 1 changes").is_none());
    }

    #[test]
    fn listening_line() {
        let (addr, n) = parse_listening("listening on 127.0.0.1:40123 for 2 publisher(s)").unwrap();
        assert_eq!(addr.port(), 40123);
        assert_eq!(n, 2);
        assert!(parse_listening("listening on nowhere for 2 publisher(s)").is_none());
    }

    #[test]
    fn baseline_line() {
        assert_eq!(
            parse_baseline("baseline: 403589 events, 97635 flows, 9 groups"),
            Some((403589, 97635, 9))
        );
        // A restored bundle carries no event count.
        assert_eq!(
            parse_baseline("baseline: restored bundle, 5 flows, 1 groups"),
            None
        );
    }

    #[test]
    fn ingest_line() {
        let line = "stats: ingest 404885 frames decoded, 3 skipped (120 B); 0 reordered";
        assert_eq!(parse_ingest(line), Some((404885, 3)));
    }
}
