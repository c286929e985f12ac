-- Predicates whose region is not one box, and OR / NOT over certain columns.
CREATE TABLE pts (pid INT, x REAL, y REAL, DEPENDENCY (x, y));
INSERT INTO pts VALUES (1, JOINT_DISCRETE((0.2, 1): 0.5, (0.8, 1): 0.3, (2, 2): 0.2)), (2, JOINT_GAUSSIAN([1, 1], [[1, 0.3], [0.3, 1]]));
SELECT pid FROM pts WHERE PROB(x < y AND x > 0.5) > 0.2;
SELECT pid, x, y FROM pts WHERE NOT (x < y);
SELECT pid, x, y FROM pts WHERE NOT (x > 1 AND y > 1);
CREATE TABLE temps (tid INT, site TEXT, value REAL UNCERTAIN);
INSERT INTO temps VALUES (1, 'a', TRIANGULAR(0, 2, 10)), (2, 'b', GAUSSIAN(20, 5)), (3, 'a', UNIFORM(0, 30));
SELECT tid, value FROM temps WHERE value < 2 OR value > 25;
SELECT tid, value FROM temps WHERE value < 10 OR value > 5;
SELECT tid FROM temps WHERE site = 'a' OR NOT (tid = 3);
SELECT tid, MEAN(value), VARIANCE(value) FROM temps WHERE tid = 1;
-- A histogram under two intervals takes the reference (its floor cuts buckets), as does a predicate over two sets.
CREATE TABLE levels (lid INT, depth REAL UNCERTAIN, flow REAL UNCERTAIN);
INSERT INTO levels VALUES (1, HISTOGRAM(0, 10, 20, 30 ; 0.2, 0.5, 0.3), GAUSSIAN(5, 1)), (2, UNIFORM(0, 30), HISTOGRAM(0, 4, 8 ; 0.5, 0.5));
SELECT lid, depth FROM levels WHERE depth < 2 OR depth > 25;
SELECT lid FROM levels WHERE depth > 5 AND flow < 6;
SELECT lid FROM levels WHERE PROB(depth > 5 AND flow < 6) > 0.1;
