//! Seeded randomized tests of the firmware's data structures.

use pard_prm::script::{eval_expr, expand, parse_num, Env};
use pard_prm::{DeviceFileTree, MemAllocator, Node};
use pard_sim::check::{cases, string_of, vec_of, DEFAULT_CASES};
use pard_sim::rng::Rng;

fn any_path(rng: &mut impl Rng) -> Vec<String> {
    vec_of(rng, 1..4, |r| {
        string_of(r, "abcdefghijklmnopqrstuvwxyz", 1..5)
    })
}

/// The allocator never hands out overlapping regions and never loses
/// capacity across arbitrary alloc/free interleavings.
#[test]
fn allocator_regions_are_disjoint_and_conserved() {
    cases("prm.allocator_disjoint_conserved", DEFAULT_CASES, |rng| {
        let ops = vec_of(rng, 1..100, |r| (r.gen_range(1u64..1000), r.gen_bool(0.5)));
        let capacity = 64 * 1024;
        let mut a = MemAllocator::new(capacity);
        let mut live: Vec<(u64, u64)> = Vec::new();
        for &(size, free_instead) in &ops {
            if free_instead && !live.is_empty() {
                let (base, sz) = live.swap_remove(0);
                a.free(base, sz);
            } else if let Ok(base) = a.allocate(size) {
                // Disjointness against every live region.
                for &(b, s) in &live {
                    assert!(
                        base + size <= b || b + s <= base,
                        "overlap: [{base},+{size}) vs [{b},+{s})"
                    );
                }
                assert!(base + size <= capacity);
                live.push((base, size));
            }
        }
        let live_bytes: u64 = live.iter().map(|&(_, s)| s).sum();
        assert_eq!(a.free_bytes() + live_bytes, capacity, "capacity conserved");
        // Freeing everything restores a single full extent.
        for (b, s) in live.drain(..) {
            a.free(b, s);
        }
        assert_eq!(a.free_bytes(), capacity);
        assert_eq!(a.allocate(capacity).unwrap(), 0);
    });
}

/// parse_num accepts what u64 formatting produces, in both bases.
#[test]
fn parse_num_round_trips() {
    cases("prm.parse_num_round_trips", DEFAULT_CASES, |rng| {
        let v = rng.next_u64();
        assert_eq!(parse_num(&v.to_string()).unwrap(), v);
        assert_eq!(parse_num(&format!("{v:#x}")).unwrap(), v);
        assert_eq!(parse_num(&format!("0X{v:X}")).unwrap(), v);
    });
}

/// pardscript arithmetic agrees with Rust for random two-operand
/// expressions across every operator.
#[test]
fn arithmetic_matches_rust() {
    cases("prm.arithmetic_matches_rust", DEFAULT_CASES, |rng| {
        let (a, b) = (rng.next_u64(), rng.next_u64());
        let ops = ["+", "-", "*", "&", "|", "^", "/", "%"];
        let op = ops[rng.gen_range(0..ops.len())];
        let expected = match op {
            "+" => a.wrapping_add(b),
            "-" => a.wrapping_sub(b),
            "*" => a.wrapping_mul(b),
            "&" => a & b,
            "|" => a | b,
            "^" => a ^ b,
            "/" => a.checked_div(b).unwrap_or(0),
            "%" => a.checked_rem(b).unwrap_or(0),
            _ => unreachable!(),
        };
        let env = Env::new();
        assert_eq!(eval_expr(&format!("{a} {op} {b}"), &env).unwrap(), expected);
    });
}

/// Variable expansion substitutes exactly the set variables and leaves
/// text without `$` untouched.
#[test]
fn expansion_is_exact() {
    cases("prm.expansion_is_exact", DEFAULT_CASES, |rng| {
        let value = string_of(rng, "abcdefghijklmnopqrstuvwxyz0123456789", 0..9);
        let prefix = string_of(rng, "abcdefghijklmnopqrstuvwxyz ", 0..9);
        let suffix = string_of(rng, "abcdefghijklmnopqrstuvwxyz ", 0..9);
        let mut env = Env::new();
        env.set("V", value.clone());
        // `$V` must be delimited from following identifier characters
        // (shell rules: `$Va` names the variable `Va`), hence the slash.
        assert_eq!(
            expand(&format!("{prefix}$V/{suffix}"), &env),
            format!("{prefix}{value}/{suffix}")
        );
        assert_eq!(expand(&prefix, &env), prefix.clone());
        assert_eq!(
            expand(&format!("{prefix}${{V}}{suffix}"), &env),
            format!("{prefix}{value}{suffix}")
        );
    });
}

/// The device file tree behaves like a map from paths to contents,
/// for any interleaving of mkdir/install/write/remove.
#[test]
fn file_tree_is_a_path_map() {
    cases("prm.file_tree_is_a_path_map", DEFAULT_CASES, |rng| {
        let ops = vec_of(rng, 1..60, |r| {
            (
                any_path(r),
                string_of(r, "abcdefghijklmnopqrstuvwxyz0123456789", 0..7),
                r.gen_range(0u8..4),
            )
        });
        let mut tree = DeviceFileTree::new();
        let mut model: std::collections::HashMap<String, String> = Default::default();
        for (segs, content, op) in &ops {
            let path = format!("/{}", segs.join("/"));
            let parent = match segs.split_last() {
                Some((_, rest)) if !rest.is_empty() => format!("/{}", rest.join("/")),
                _ => "/".to_string(),
            };
            match op {
                0 => {
                    // Install a data file (parent dirs created first). May
                    // legitimately fail if a path component is a file.
                    if tree.mkdir_all(&parent).is_ok()
                        && tree.install(&path, Node::Data(content.clone())).is_ok()
                    {
                        model.insert(path.clone(), content.clone());
                        // Installing over a directory erases that subtree.
                        model.retain(|p, _| p == &path || !p.starts_with(&format!("{path}/")));
                    }
                }
                1 => {
                    if model.contains_key(&path) {
                        tree.write(&path, content).unwrap();
                        model.insert(path.clone(), content.clone());
                    }
                }
                2 => {
                    if tree.remove(&path).is_ok() {
                        model.retain(|p, _| p != &path && !p.starts_with(&format!("{path}/")));
                    }
                }
                _ => {
                    // Read must agree with the model for file paths.
                    if let Some(expected) = model.get(&path) {
                        assert_eq!(&tree.read(&path).unwrap(), expected);
                    }
                }
            }
        }
        // Final sweep: every modelled file reads back exactly.
        for (path, expected) in &model {
            assert_eq!(&tree.read(path).unwrap(), expected, "path {path}");
        }
    });
}

/// Shift amounts wrap like Rust's wrapping_shl/shr.
#[test]
fn shifts_match_rust() {
    cases("prm.shifts_match_rust", DEFAULT_CASES, |rng| {
        let a = rng.next_u64();
        let s = rng.gen_range(0u64..200);
        let env = Env::new();
        assert_eq!(
            eval_expr(&format!("{a} << {s}"), &env).unwrap(),
            a.wrapping_shl(s as u32)
        );
        assert_eq!(
            eval_expr(&format!("{a} >> {s}"), &env).unwrap(),
            a.wrapping_shr(s as u32)
        );
    });
}
